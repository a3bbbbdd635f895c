"""Layered neighbour sampling (GraphSAGE-style, paper Sec. II-B).

For an ``L``-layer model with fanouts ``[k_1, ..., k_L]`` (outermost
layer first, the DGL convention — paper default ``[15, 10, 5]``), the
sampler walks from the seed nodes inwards: the layer-``l`` block connects
each destination node to at most ``k_l`` of its in-neighbours, chosen
uniformly without replacement.  Nodes with degree ``<= k`` keep all their
neighbours.

The whole per-layer step is vectorised, and ordered so that the
adjacency arrays are touched last
(:func:`repro.sampling.batch.sample_layer`): the frontier's degrees say
which nodes must choose, the without-replacement choice is made over
edge *positions* by Floyd's algorithm, one bounded draw per winner and
vectorised across nodes, instead of a per-node ``rng.choice`` loop, and
neighbour ids are read only for the edges that won
(:meth:`~repro.graph.csr.GraphView.gather_edges`).  The sampler accepts
any :class:`~repro.graph.csr.GraphView`: on a
:class:`~repro.graph.delta.LayeredCSR` degrees and positions refer to
the merged base+delta adjacency, so streamed edges participate in
sampling with no kernel change.

RNG draw-order contract
-----------------------
The per-call draw pattern is load-bearing: serving caches and the
pool/inline parity guarantee both assume a node's sampled frontier is a
pure function of its RNG stream.  Per layer,
:func:`sample_neighbors_uniform` makes exactly **one**
``rng.integers(0, bounds, dtype=np.int64)`` call, where ``bounds`` is
the ``(drawing nodes, fanout)`` matrix of the frontier's nodes with
``deg > fanout``, rows in frontier order, ``bounds[r, i] = deg_r -
fanout + i + 1`` (degrees of the view's merged adjacency once deltas
exist), and makes **no call at all** when no frontier node has more
than ``fanout`` in-edges.  The fused multi-request path
(:meth:`NeighborSampler.sample_merged`) makes the same call per request
segment from that segment's own generator, which is what makes it
bit-identical to looping :meth:`NeighborSampler.sample` per request
(the full contract is in :mod:`repro.sampling.batch`).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.graph.csr import GraphView
from repro.sampling.base import Sampler
from repro.sampling.batch import (
    MergedFrontier,
    assemble_block,
    check_seed_batches,
    sample_layer,
)
from repro.sampling.block import Block, MiniBatch
from repro.utils.rng import as_generator

__all__ = ["NeighborSampler", "sample_neighbors_uniform"]


def sample_neighbors_uniform(
    graph: GraphView, nodes: np.ndarray, fanout: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample up to ``fanout`` in-neighbours per node, without replacement.

    Returns ``(src, dst_pos)`` where ``src`` are global neighbour ids and
    ``dst_pos[e]`` is the position in ``nodes`` the edge points to.

    The single-stream form of :func:`repro.sampling.batch.sample_layer`:
    a node with ``deg <= fanout`` keeps every edge in adjacency order;
    each other node keeps ``fanout`` positions chosen by Floyd's
    algorithm from one row of a single ``rng.integers`` call (none when
    no node draws — see the module docstring's draw-order contract),
    in ascending position.  An exact uniform without-replacement sample
    with no Python-level loop over nodes and no sort of candidates:
    the work grows with the winners, not the candidates, and neighbour
    ids are read for the winners alone.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    return sample_layer(graph, nodes, fanout, [rng], np.array([0, len(nodes)]))


class NeighborSampler(Sampler):
    """Uniform layered neighbour sampler.

    Parameters
    ----------
    fanouts:
        Per-layer sample sizes, outermost (seed) layer first; the paper
        uses ``[15, 10, 5]`` — note the sampler *walks* the list in
        reverse so that ``fanouts[0]`` applies at the layer nearest the
        seeds, matching DGL's ``NeighborSampler([15, 10, 5])``.
    """

    def __init__(self, fanouts: list[int] | tuple[int, ...] = (15, 10, 5)):
        fanouts = [int(f) for f in fanouts]
        if not fanouts or any(f < 1 for f in fanouts):
            raise ValueError(f"fanouts must be positive ints, got {fanouts}")
        self.fanouts = fanouts
        self.num_layers = len(fanouts)

    def sample(self, graph: GraphView, seeds: np.ndarray, *, rng=None) -> MiniBatch:
        rng = as_generator(rng)
        seeds = np.asarray(seeds, dtype=np.int64)
        if len(seeds) == 0:
            raise ValueError("cannot sample an empty seed batch")
        if len(np.unique(seeds)) != len(seeds):
            raise ValueError("seed nodes must be unique within a batch")
        blocks: list[Block] = []
        frontier = seeds
        # innermost fanout is applied last in model order; we build from the
        # output layer inwards, then reverse.
        for fanout in self.fanouts:
            src_global, dst_pos = sample_neighbors_uniform(graph, frontier, fanout, rng)
            block = assemble_block(frontier, src_global, dst_pos)
            blocks.append(block)
            frontier = block.src_ids
        blocks.reverse()
        return MiniBatch(seeds=seeds, blocks=blocks)

    def sample_merged(
        self,
        graph: GraphView,
        seed_batches: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
    ) -> MergedFrontier:
        """Fused multi-request sampling: one NumPy pass per layer.

        Bit-identical to ``merge_frontiers([self.sample(graph, s, rng=r)
        for s, r in zip(seed_batches, rngs)])`` — each segment's bounded
        draws come from its own generator in the exact looped order
        (module docstring) — but Floyd's steps, the gather and the block
        assembly each run once over the concatenated frontier instead of
        once per request.
        """
        seed_batches = check_seed_batches(seed_batches, rngs)
        request_rows = np.zeros(len(seed_batches) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in seed_batches], out=request_rows[1:])
        frontier = np.concatenate(seed_batches)
        splits = request_rows
        blocks: list[Block] = []
        sample_s = 0.0
        merge_s = 0.0
        start = time.perf_counter()
        for fanout in self.fanouts:
            src_global, dst_pos = sample_layer(graph, frontier, fanout, rngs, splits)
            mid = time.perf_counter()
            block = assemble_block(frontier, src_global, dst_pos, splits, graph.num_nodes)
            blocks.append(block)
            frontier = block.src_ids
            splits = block.src_splits
            end = time.perf_counter()
            sample_s += mid - start
            merge_s += end - mid
            start = end
        blocks.reverse()
        return MergedFrontier(
            blocks=blocks,
            seeds=np.concatenate(seed_batches),
            request_rows=request_rows,
            sample_s=sample_s,
            merge_s=merge_s,
        )