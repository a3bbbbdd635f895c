"""Compressed-sparse-row graph structure.

``CSRGraph`` stores, for every destination node ``v``, the sorted slice of
source nodes ``indices[indptr[v]:indptr[v+1]]`` that have an edge into
``v``.  This is the orientation GNN aggregation needs: messages flow from
``u in N(v)`` (sources) to ``v`` (destination), exactly the ``N(i)`` of the
paper's Table I.

Design notes
------------
* Arrays are immutable by convention (we set ``writeable=False``) so that
  graphs can be shared freely between the per-rank training processes of
  the Multi-Process Engine without copies — mirroring how DGL shares the
  graph through shared memory.
* All hot-path operations (degree lookup, slicing neighbourhoods for a
  whole batch) are vectorised with numpy; no per-node Python loops.
"""

from __future__ import annotations

from typing import Iterable, Protocol

import numpy as np

__all__ = ["CSRGraph", "GraphView", "induced_subgraph"]


class GraphView(Protocol):
    """Read-only in-edge adjacency interface the samplers consume.

    Two implementations exist: the frozen :class:`CSRGraph` below and the
    delta-overlaying :class:`repro.graph.delta.LayeredCSR`.  Everything
    above the graph layer (samplers, serving engine) is written against
    this protocol, so a live deployment can swap a frozen graph for a
    layered view without touching sampler code.  Per-node neighbour order
    is part of the contract — it feeds the samplers' RNG draw-order
    contract (see :mod:`repro.sampling.batch`).
    """

    num_nodes: int

    @property
    def num_edges(self) -> int: ...

    def in_degree(self, nodes: np.ndarray | None = None) -> np.ndarray: ...

    def neighbors(self, node: int) -> np.ndarray: ...

    def gather_neighbors(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...

    def gather_edges(
        self, nodes: np.ndarray, rows: np.ndarray, local: np.ndarray
    ) -> np.ndarray: ...

    def subgraph(self, nodes: np.ndarray) -> tuple["CSRGraph", np.ndarray]: ...


def induced_subgraph(view: "GraphView", nodes: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
    """Node-induced subgraph of any :class:`GraphView`.

    Returns ``(sub, nodes)`` where ``sub`` has ``len(nodes)`` nodes and
    contains every edge of ``view`` whose endpoints are both in
    ``nodes``; node ``i`` of ``sub`` corresponds to ``nodes[i]``.
    ``nodes`` must not contain duplicates.  Implemented once on top of
    ``gather_neighbors`` so frozen and layered graphs produce the same
    subgraph with the same per-row edge order bit-for-bit.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if len(np.unique(nodes)) != len(nodes):
        raise ValueError("subgraph nodes must be unique")
    relabel = np.full(view.num_nodes, -1, dtype=np.int64)
    relabel[nodes] = np.arange(len(nodes), dtype=np.int64)
    srcs, offsets = view.gather_neighbors(nodes)
    src_local = relabel[srcs]
    keep = src_local >= 0
    # destination local id for each gathered edge
    dst_local = np.repeat(np.arange(len(nodes), dtype=np.int64), np.diff(offsets))
    sub_src = src_local[keep]
    sub_dst = dst_local[keep]
    # already grouped by dst (gather order) — build indptr by counting
    counts = np.bincount(sub_dst, minlength=len(nodes))
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, sub_src, len(nodes)), nodes


class CSRGraph:
    """In-edge CSR graph over nodes ``0..num_nodes-1``.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_nodes + 1``; monotone non-decreasing,
        ``indptr[0] == 0`` and ``indptr[-1] == num_edges``.
    indices:
        ``int64`` array of source-node ids, one per edge, grouped by
        destination.
    num_nodes:
        Optional explicit node count (defaults to ``len(indptr) - 1``).
    """

    # _reverse: the memoised out-edge CSR (see reverse); never pickled
    __slots__ = ("indptr", "indices", "num_nodes", "_reverse")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, num_nodes: int | None = None):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be 1-D arrays")
        if len(indptr) < 1:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise ValueError(f"indptr[0] must be 0, got {indptr[0]}")
        if indptr[-1] != len(indices):
            raise ValueError(
                f"indptr[-1] ({indptr[-1]}) must equal len(indices) ({len(indices)})"
            )
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = len(indptr) - 1 if num_nodes is None else int(num_nodes)
        if n != len(indptr) - 1:
            raise ValueError(
                f"num_nodes ({n}) inconsistent with indptr length ({len(indptr) - 1})"
            )
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("edge endpoints out of range")
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self.indptr = indptr
        self.indices = indices
        self.num_nodes = n
        self._reverse = None

    @classmethod
    def from_trusted_parts(cls, indptr: np.ndarray, indices: np.ndarray) -> "CSRGraph":
        """Wrap already-validated CSR arrays without copying or re-scanning.

        Used by the shared-memory store (:mod:`repro.graph.shm`) when a
        worker process attaches to segments the creating process already
        validated: the O(N + E) invariant scans of ``__init__`` would run
        once per worker per epoch otherwise.  The arrays are used as-is —
        callers must guarantee dtype ``int64``, contiguity and the CSR
        invariants, and should pass read-only views.
        """
        g = cls.__new__(cls)
        g.indptr = indptr
        g.indices = indices
        g.num_nodes = len(indptr) - 1
        g._reverse = None
        return g

    def __getstate__(self):
        return self.indptr, self.indices, self.num_nodes

    def __setstate__(self, state) -> None:
        self.indptr, self.indices, self.num_nodes = state
        self._reverse = None

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.indptr[-1])

    def in_degree(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """In-degrees of ``nodes`` (all nodes if ``None``)."""
        if nodes is None:
            return np.diff(self.indptr)
        nodes = np.asarray(nodes, dtype=np.int64)
        return self.indptr[nodes + 1] - self.indptr[nodes]

    def neighbors(self, node: int) -> np.ndarray:
        """Read-only view of the in-neighbours of ``node``."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):  # graphs are mutable-free; hash by identity
        return id(self)

    # ------------------------------------------------------------------
    # batched neighbourhood access (hot path for samplers)
    # ------------------------------------------------------------------
    def gather_neighbors(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated in-neighbour lists for a batch of nodes.

        Returns ``(sources, offsets)`` where
        ``sources[offsets[i]:offsets[i+1]]`` are the in-neighbours of
        ``nodes[i]``.  Fully vectorised (no Python loop over nodes).
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(self.in_degree(nodes), out=offsets[1:])
        return self.indices[self.edge_ids(nodes)], offsets

    def gather_edges(self, nodes: np.ndarray, rows: np.ndarray, local: np.ndarray) -> np.ndarray:
        """Sources of chosen in-edges only: for each ``e``, entry
        ``local[e]`` of the neighbour list of ``nodes[rows[e]]``.

        Equal to ``gather_neighbors(nodes)`` indexed at
        ``offsets[rows] + local``, but reads ``indices`` at those places
        alone — the samplers' hot path, which knows the winning edges
        before it needs any neighbour id.
        """
        return self.indices[self.indptr[nodes][rows] + local]

    def edge_ids(self, nodes: np.ndarray) -> np.ndarray:
        """Global edge ids (positions in ``indices``) of all in-edges of ``nodes``."""
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.indptr[nodes]
        degs = self.indptr[nodes + 1] - starts
        ends = np.cumsum(degs)
        total = int(ends[-1]) if len(ends) else 0
        # for row i, the run starts[i] .. starts[i] + degs[i]
        return np.repeat(starts - (ends - degs), degs) + np.arange(total, dtype=np.int64)

    # ------------------------------------------------------------------
    # conversions / derived graphs
    # ------------------------------------------------------------------
    def to_edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays of all edges."""
        dst = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))
        return self.indices.copy(), dst

    def reverse(self) -> "CSRGraph":
        """Graph with every edge direction flipped (out-edge CSR of self).

        Built on the first call and memoised: the same read-only graph is
        returned from then on.  The memo is derived data, so it is left
        out of pickling and rebuilt on demand on the other side.
        """
        if self._reverse is None:
            src, dst = self.to_edge_index()
            from repro.graph.build import from_edge_index  # local import to avoid cycle

            self._reverse = from_edge_index(dst, src, self.num_nodes, coalesce=False)
        return self._reverse

    def subgraph(self, nodes: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Node-induced subgraph.

        Returns ``(sub, nodes)`` where ``sub`` has ``len(nodes)`` nodes and
        contains every edge of ``self`` whose endpoints are both in
        ``nodes``; node ``i`` of ``sub`` corresponds to ``nodes[i]``.
        ``nodes`` must not contain duplicates.
        """
        return induced_subgraph(self, nodes)

    def has_self_loops(self) -> bool:
        src, dst = self.to_edge_index()
        return bool(np.any(src == dst))

    def validate(self) -> None:
        """Re-run all structural invariants (used by property tests)."""
        CSRGraph(self.indptr.copy(), self.indices.copy(), self.num_nodes)
