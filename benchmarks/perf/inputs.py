"""Seed-driven input generators: the program only ever sees these.

Every stream is a pure function of ``(seed, stream name)``, drawn from
its own ``numpy`` generator so that adding a stream never shifts
another.

Two kinds of seed.  The *world* — the graph, the served model, which
nodes are popular, which nodes the correctness probe reads — is drawn
from the fixed ``WORLD_SEED``.  The *traffic* — shuffles and sampling
streams, request draws, arrival times, graph deltas, tuner seeds — is
drawn from ``--seed``.  Redrawing the graph per seed moved epoch time by
9% and a serving set-up by 4x between seeds, which is a property of the
draw, not of the program under test.
"""

from __future__ import annotations

import zlib

import numpy as np


WORLD_SEED = 0


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, zlib.crc32(stream.encode())])


def zipf_nodes(seed: int, num_nodes: int, count: int, alpha: float) -> np.ndarray:
    """``count`` node ids with Zipf(``alpha``) popularity over all nodes.

    Which node holds which popularity rank is a world-seeded permutation
    (so the hot set is not the low ids, and is the same hot set on every
    traffic seed); the draws come from ``seed``.  ``alpha == 0`` is uniform.
    """
    rng = _rng(seed, "zipf")
    if alpha <= 0:
        return rng.integers(0, num_nodes, size=count, dtype=np.int64)
    weights = 1.0 / np.arange(1, num_nodes + 1, dtype=np.float64) ** alpha
    weights /= weights.sum()
    ranked = _rng(WORLD_SEED, "popularity").permutation(num_nodes)
    return ranked[rng.choice(num_nodes, size=count, p=weights)].astype(np.int64)


def poisson_due_times(seed: int, rate_per_s: float, horizon_s: float) -> np.ndarray:
    """Arrival times (seconds from start) of a Poisson stream before ``horizon_s``."""
    rng = _rng(seed, "arrivals")
    # draw comfortably more gaps than the horizon needs, then cut
    gaps = rng.exponential(1.0 / rate_per_s, size=int(rate_per_s * horizon_s * 1.5) + 64)
    due = np.cumsum(gaps)
    return due[due < horizon_s]


def edge_deltas(seed: int, num_nodes: int, count: int, edges: int = 8):
    """``count`` appended-edge batches as ``(src, dst)`` id arrays."""
    rng = _rng(seed, "deltas")
    return [
        (
            rng.integers(0, num_nodes, size=edges, dtype=np.int64),
            rng.integers(0, num_nodes, size=edges, dtype=np.int64),
        )
        for _ in range(count)
    ]


def probe_nodes(num_nodes: int, count: int = 64) -> np.ndarray:
    """Distinct nodes whose predictions the correctness check compares (world-seeded)."""
    return _rng(WORLD_SEED, "probe").choice(num_nodes, size=count, replace=False).astype(np.int64)


def seed_batches(seed: int, train_idx: np.ndarray, batch: int, count: int):
    """``count`` training seed batches drawn like an epoch shuffle."""
    rng = _rng(seed, "batches")
    out = []
    while len(out) < count:
        perm = rng.permutation(train_idx)
        for i in range(max(1, len(perm) // batch)):
            out.append(perm[i * batch : (i + 1) * batch])
    return out[:count]
