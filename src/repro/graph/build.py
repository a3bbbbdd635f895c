"""Builders converting edge lists (COO) into :class:`CSRGraph`.

These are the equivalents of ``dgl.graph((src, dst))`` /
``torch_geometric.utils`` helpers.  All builders are vectorised and share
one sort: each edge becomes the composite key ``dst * num_nodes + src``,
and sorting the keys in place groups edges into CSR rows, sources
ascending within a row, in ``O(E log E)`` without Python loops.  Key
order is exactly the two-key ``lexsort((src, dst))`` order, and equal
keys are identical edges, so an unstable sort is enough even when
duplicates are kept.  Keys must fit in ``int64``, which caps the node
count at :data:`MAX_NODES`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "MAX_NODES",
    "from_edge_index",
    "to_undirected_edges",
    "remove_self_loops",
    "coalesce_edges",
]

#: largest node count whose composite edge keys (up to ``n**2 - 1``)
#: fit in ``int64``: ``isqrt(2**63 - 1)``, about 3.04e9
MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


def _as_edges(src, dst) -> tuple[np.ndarray, np.ndarray]:
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise ValueError(f"src/dst must be 1-D arrays of equal length, got {src.shape} / {dst.shape}")
    return src, dst


def _sorted_keys(src: np.ndarray, dst: np.ndarray, num_nodes: int, *, unique: bool) -> np.ndarray:
    """Ascending ``dst * num_nodes + src`` keys, repeats dropped if ``unique``.

    Endpoints must already lie in ``[0, num_nodes)``.
    """
    if num_nodes > MAX_NODES:
        raise ValueError(f"num_nodes {num_nodes} exceeds MAX_NODES ({MAX_NODES}): edge keys overflow int64")
    key = dst * num_nodes
    key += src
    key.sort()
    if unique and len(key) > 1:
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    return key


def coalesce_edges(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Sort edges by (dst, src) and drop exact duplicates.

    Endpoints must be non-negative node ids below :data:`MAX_NODES`.
    """
    src, dst = _as_edges(src, dst)
    if not len(src):
        return src, dst
    if min(src.min(), dst.min()) < 0:
        raise ValueError("edge endpoints must be non-negative")
    num_nodes = int(max(src.max(), dst.max())) + 1
    dst, src = np.divmod(_sorted_keys(src, dst, num_nodes, unique=True), num_nodes)
    return src, dst


def remove_self_loops(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Drop edges with ``src == dst``."""
    src, dst = _as_edges(src, dst)
    keep = src != dst
    return src[keep], dst[keep]


def to_undirected_edges(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Mirror every edge; duplicates are *not* removed (use coalesce)."""
    src, dst = _as_edges(src, dst)
    return np.concatenate([src, dst]), np.concatenate([dst, src])


def from_edge_index(
    src,
    dst,
    num_nodes: int | None = None,
    *,
    coalesce: bool = True,
    undirected: bool = False,
    self_loops: bool = True,
) -> CSRGraph:
    """Build an in-edge CSR graph from COO arrays.

    Parameters
    ----------
    src, dst:
        Edge endpoint arrays (``src[i] -> dst[i]``).
    num_nodes:
        Node count; inferred as ``max(endpoint) + 1`` when omitted.  At
        most :data:`MAX_NODES`, else ``ValueError``.
    coalesce:
        Drop duplicate edges (default True).
    undirected:
        Mirror all edges before building (then coalesce if requested).
    self_loops:
        When False, remove self loops.
    """
    src, dst = _as_edges(src, dst)
    # self loops are their own mirror, so dropping them first is the same
    # edge multiset at half the copy
    if not self_loops:
        src, dst = remove_self_loops(src, dst)
    if undirected:
        src, dst = to_undirected_edges(src, dst)
    if num_nodes is None:
        num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if len(src) else 0
    if len(src) and (src.min() < 0 or dst.min() < 0 or src.max() >= num_nodes or dst.max() >= num_nodes):
        raise ValueError("edge endpoints out of range for num_nodes")
    key = _sorted_keys(src, dst, num_nodes, unique=coalesce)
    del src, dst
    # row v holds the keys in [v * num_nodes, (v + 1) * num_nodes)
    indptr = np.searchsorted(key, np.arange(num_nodes + 1, dtype=np.int64) * num_nodes)
    return CSRGraph(indptr, np.remainder(key, num_nodes, out=key), num_nodes)
