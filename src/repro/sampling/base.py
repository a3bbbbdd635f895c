"""Sampler base class."""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.graph.csr import GraphView
from repro.sampling.batch import MergedFrontier, check_seed_batches, merge_frontiers
from repro.sampling.block import MiniBatch

__all__ = ["Sampler"]


class Sampler:
    """Abstract mini-batch sampler.

    A sampler turns ``(graph, seed nodes)`` into a :class:`MiniBatch` of
    message-flow blocks.  Samplers are stateless apart from the RNG passed
    per call, so one sampler instance can be shared by all ranks of the
    Multi-Process Engine.

    ``graph`` is any :class:`~repro.graph.csr.GraphView` — the frozen
    :class:`~repro.graph.csr.CSRGraph` or a delta-overlaying
    :class:`~repro.graph.delta.LayeredCSR`.  Samplers only touch the
    protocol surface (``in_degree``/``gather_edges``/``gather_neighbors``/
    ``subgraph``/``num_nodes``),
    so both the looped and the fused ``sample_merged`` kernels see merged
    adjacency automatically once deltas exist; the RNG draw-order
    contract (:mod:`repro.sampling.batch`) is stated over the view's
    merged per-node neighbour order, with degrees including delta
    edges.
    """

    #: how many GNN layers the produced blocks feed (set by subclasses)
    num_layers: int = 0

    def sample(self, graph: GraphView, seeds: np.ndarray, *, rng=None) -> MiniBatch:
        raise NotImplementedError

    def sample_merged(
        self,
        graph: GraphView,
        seed_batches: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
    ) -> MergedFrontier:
        """Sample one independent request segment per seed batch, merged.

        Segment ``k`` draws exactly what ``self.sample(graph,
        seed_batches[k], rng=rngs[k])`` would — each from its own
        generator — and the segments are concatenated block-diagonally
        (:func:`~repro.sampling.batch.merge_frontiers`).  This loop is
        the reference: the neighbor and shadow samplers override it with
        a fused kernel that must stay bit-identical to it.  The result
        carries the time spent drawing frontiers (``sample_s``) apart
        from the time assembling the merged layout (``merge_s``).
        """
        seed_batches = check_seed_batches(seed_batches, rngs)
        start = time.perf_counter()
        batches = [
            self.sample(graph, seeds, rng=rng)
            for seeds, rng in zip(seed_batches, rngs)
        ]
        mid = time.perf_counter()
        merged = merge_frontiers(batches)
        merged.sample_s = mid - start
        merged.merge_s = time.perf_counter() - mid
        return merged

    @property
    def name(self) -> str:
        return type(self).__name__
