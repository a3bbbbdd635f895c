"""Synthetic graph generators.

The paper's datasets (Flickr, Reddit, ogbn-products, ogbn-papers100M) are
heavy-tailed social/co-purchase/citation graphs.  We cannot ship those
graphs, so the dataset registry (:mod:`repro.graph.datasets`) instantiates
scaled-down synthetic stand-ins from the generators here:

* :func:`rmat_edges` — the classic recursive-matrix (Kronecker) generator,
  which produces the power-law degree distributions and community structure
  that drive the *shared-neighbour workload inflation* effect of the
  paper's Figure 5/6.  Vectorised: all edges are placed at once by sampling
  one quadrant choice per (edge, level) pair.
* :func:`powerlaw_graph` — a configuration-model style power-law graph used
  by property tests (exact degree control).
* :func:`erdos_renyi_graph` — uniform random baseline used in ablations.
"""

from __future__ import annotations

import numpy as np

from repro.graph.build import from_edge_index
from repro.graph.csr import CSRGraph
from repro.utils.rng import as_generator

__all__ = ["rmat_edges", "powerlaw_graph", "erdos_renyi_graph"]


def rmat_edges(
    scale: int,
    edge_factor: float,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    rng=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``~edge_factor * 2**scale`` RMAT edges over ``2**scale`` nodes.

    ``(a, b, c, d=1-a-b-c)`` are the standard RMAT quadrant probabilities
    (defaults are the Graph500 values, giving a heavy-tailed in-degree
    distribution similar to ogbn-products).
    """
    if scale < 1 or scale > 30:
        raise ValueError(f"scale must be in [1, 30], got {scale}")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise ValueError("RMAT probabilities must be non-negative and sum to <= 1")
    rng = as_generator(rng)
    n_edges = int(round(edge_factor * (1 << scale)))
    # ids below 2**30 fit int32, which halves the per-level shift traffic;
    # the final permutation gather returns int64
    src = np.zeros(n_edges, dtype=np.int32)
    dst = np.zeros(n_edges, dtype=np.int32)
    # At each recursion level choose one of four quadrants per edge.  The
    # buffers are reused across levels: ``random(out=)`` draws the same
    # stream as ``random(n_edges)``.
    p_right = b + d  # probability the src bit is 1 (right half)
    # conditional probability the dst bit is 1, indexed by the src bit
    p_bot_given = np.array([c / max(a + c, 1e-12), d / max(p_right, 1e-12)])
    u = np.empty(n_edges)
    v = np.empty(n_edges)
    p_bot = np.empty(n_edges)
    bit = np.empty(n_edges, dtype=bool)
    for level in range(scale):
        rng.random(out=u)
        rng.random(out=v)
        np.less(u, p_right, out=bit)
        src <<= 1
        src |= bit
        # bits index as 0/1, so "clip" never clips; it skips take's buffer
        np.take(p_bot_given, bit.view(np.uint8), out=p_bot, mode="clip")
        np.less(v, p_bot, out=bit)
        dst <<= 1
        dst |= bit
    # random permutation of node ids to remove the RMAT id-locality artifact
    perm = rng.permutation(1 << scale)
    return perm[src], perm[dst]


def powerlaw_graph(
    num_nodes: int,
    avg_degree: float,
    *,
    exponent: float = 2.2,
    rng=None,
) -> CSRGraph:
    """Configuration-model power-law graph (undirected, coalesced).

    Degrees are drawn from a discrete power law with the given exponent,
    scaled to hit ``avg_degree`` in expectation, then stubs are matched
    uniformly at random.  Self loops are removed and duplicates coalesced,
    so the realised average degree is slightly below the target on dense
    settings.
    """
    if num_nodes < 2:
        raise ValueError(f"num_nodes must be >= 2, got {num_nodes}")
    if avg_degree <= 0:
        raise ValueError(f"avg_degree must be > 0, got {avg_degree}")
    rng = as_generator(rng)
    # Zipf-ish raw degrees, clipped to keep the max degree below n.
    raw = rng.zipf(exponent, size=num_nodes).astype(np.float64)
    raw = np.minimum(raw, num_nodes - 1)
    degrees = np.maximum(1, np.round(raw * (avg_degree / raw.mean()))).astype(np.int64)
    if degrees.sum() % 2 == 1:
        degrees[int(rng.integers(num_nodes))] += 1
    stubs = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    half = len(stubs) // 2
    src, dst = stubs[:half], stubs[half : 2 * half]
    return from_edge_index(src, dst, num_nodes, undirected=True, self_loops=False)


def erdos_renyi_graph(num_nodes: int, avg_degree: float, *, rng=None) -> CSRGraph:
    """G(n, m) uniform random graph with ``m ≈ n*avg_degree/2`` undirected edges."""
    if num_nodes < 2:
        raise ValueError(f"num_nodes must be >= 2, got {num_nodes}")
    rng = as_generator(rng)
    m = int(round(num_nodes * avg_degree / 2))
    src = rng.integers(0, num_nodes, size=m, dtype=np.int64)
    dst = rng.integers(0, num_nodes, size=m, dtype=np.int64)
    return from_edge_index(src, dst, num_nodes, undirected=True, self_loops=False)
