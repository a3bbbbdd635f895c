"""ShaDow-GNN sampler (paper Sec. II-B, Zeng et al. 2021).

ShaDow decouples model depth from receptive-field scope: it first builds a
localised sampled ``L'``-hop subgraph around each seed batch (paper
fanouts ``[10, 5]``), then runs *all* ``L`` GNN layers on that fixed
subgraph.  This bounds the neighbourhood (no neighbour explosion) at the
cost of a more expensive, less parallel sampling stage — which is exactly
why the paper sees its biggest ARGO speedups on ShaDow (Sec. VI-E).

We represent the result as ``L`` identical blocks over the subgraph node
set with the seeds first, so the same model forward used for neighbour
sampling applies unchanged and the output rows for the seeds are simply
the destination prefix of the last block.

Both paths grow the node set with the shared per-layer step
(:func:`repro.sampling.batch.sample_layer`: degrees, bounded draws for
the nodes with more than ``fanout`` in-edges, winning positions by
Floyd's algorithm, then the winners' ids).  The fused multi-request path
(:meth:`ShadowSampler.sample_merged`) grows every request's node set in
the same hop loop — per hop, one ``rng.integers`` call per request
segment that has a drawing node, from that request's own generator, in
the looped path's exact draw order (the contract in
:mod:`repro.sampling.batch`) — and induces all subgraphs with one full
gather over the concatenated node sets (the induction needs every edge,
not a sample).  A request whose hop discovers no new nodes simply drops
out of the shared frontier, exactly as the looped path's early
``break`` stops its draws.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.graph.csr import GraphView
from repro.sampling.base import Sampler
from repro.sampling.batch import MergedFrontier, check_seed_batches, sample_layer
from repro.sampling.block import Block, MiniBatch
from repro.sampling.neighbor import sample_neighbors_uniform
from repro.utils.rng import as_generator

__all__ = ["ShadowSampler"]


class ShadowSampler(Sampler):
    """Localised-subgraph sampler.

    Parameters
    ----------
    fanouts:
        Per-hop sample sizes for growing the localised subgraph
        (paper default ``[10, 5]`` — a 2-hop scope).
    num_layers:
        Depth of the GNN that will run on the subgraph (paper: 3).  The
        sampler emits this many (identical) blocks.
    """

    def __init__(self, fanouts: list[int] | tuple[int, ...] = (10, 5), num_layers: int = 3):
        fanouts = [int(f) for f in fanouts]
        if not fanouts or any(f < 1 for f in fanouts):
            raise ValueError(f"fanouts must be positive ints, got {fanouts}")
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.fanouts = fanouts
        self.num_layers = int(num_layers)

    def sample(self, graph: GraphView, seeds: np.ndarray, *, rng=None) -> MiniBatch:
        rng = as_generator(rng)
        seeds = np.asarray(seeds, dtype=np.int64)
        if len(seeds) == 0:
            raise ValueError("cannot sample an empty seed batch")
        if len(np.unique(seeds)) != len(seeds):
            raise ValueError("seed nodes must be unique within a batch")

        # Grow the node set hop by hop (seeds stay first).
        node_set = seeds
        frontier = seeds
        for fanout in self.fanouts:
            src_global, _ = sample_neighbors_uniform(graph, frontier, fanout, rng)
            new = np.setdiff1d(np.unique(src_global), node_set, assume_unique=False)
            if len(new) == 0:
                break
            node_set = np.concatenate([node_set, new])
            frontier = new

        # Induce the subgraph on the collected node set, preserving order
        # (seeds first) so that local ids 0..len(seeds)-1 are the seeds.
        sub, _ = graph.subgraph(node_set)
        sub_src, sub_dst = sub.to_edge_index()

        # Intermediate layers aggregate over the whole subgraph; the last
        # layer narrows its destinations to the seed prefix so the training
        # loop reads exactly len(seeds) output rows.
        full = Block(
            src_ids=node_set,
            num_dst=len(node_set),
            edge_src=sub_src,
            edge_dst=sub_dst,
        )
        seed_mask = sub_dst < len(seeds)
        last = Block(
            src_ids=node_set,
            num_dst=len(seeds),
            edge_src=sub_src[seed_mask],
            edge_dst=sub_dst[seed_mask],
        )
        blocks = [full] * (self.num_layers - 1) + [last]
        return MiniBatch(seeds=seeds, blocks=blocks)

    def sample_merged(
        self,
        graph: GraphView,
        seed_batches: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
    ) -> MergedFrontier:
        """Fused multi-request subgraph growth + one-pass union induction.

        Bit-identical to merging looped :meth:`sample` calls: node sets
        are tracked as composite keys ``seg * num_nodes + id`` so one
        sorted-array membership test is an independent per-segment
        ``setdiff1d``, and the final induction is one
        :meth:`~repro.graph.csr.CSRGraph.gather_neighbors` over the
        concatenated (seeds-first, hop-ordered) node sets with a
        composite-key member lookup replacing the per-request
        ``subgraph`` relabel.
        """
        seed_batches = check_seed_batches(seed_batches, rngs)
        num_segments = len(seed_batches)
        num_nodes = graph.num_nodes
        seed_counts = np.array([len(s) for s in seed_batches], dtype=np.int64)
        seed_splits = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(seed_counts, out=seed_splits[1:])
        start = time.perf_counter()

        # grow every segment's node set in lockstep (its own hop order:
        # seeds, then each hop's new nodes in ascending id order)
        part_ids = [np.concatenate(seed_batches)]
        part_segs = [
            np.repeat(np.arange(num_segments, dtype=np.int64), seed_counts)
        ]
        member_ce = np.sort(part_segs[0] * num_nodes + part_ids[0])
        frontier_ids = part_ids[0]
        frontier_segs = part_segs[0]
        for fanout in self.fanouts:
            f_counts = np.bincount(frontier_segs, minlength=num_segments)
            f_splits = np.zeros(num_segments + 1, dtype=np.int64)
            np.cumsum(f_counts, out=f_splits[1:])
            src_global, dst_pos = sample_layer(graph, frontier_ids, fanout, rngs, f_splits)
            # per-segment unique of the sampled sources, minus members
            ce = np.unique(frontier_segs[dst_pos] * num_nodes + src_global)
            pos = np.searchsorted(member_ce, ce)
            found = pos < len(member_ce)
            found[found] = member_ce[pos[found]] == ce[found]
            new_ce = ce[~found]
            if len(new_ce) == 0:
                break  # no segment found anything new; all rngs go quiet
            member_ce = np.sort(np.concatenate([member_ce, new_ce]))
            frontier_segs = new_ce // num_nodes
            frontier_ids = new_ce - frontier_segs * num_nodes
            part_ids.append(frontier_ids)
            part_segs.append(frontier_segs)

        # per-segment node order: seeds first, then hop chunks — the
        # stable sort by segment preserves exactly that discovery order
        all_ids = np.concatenate(part_ids)
        all_segs = np.concatenate(part_segs)
        order = np.argsort(all_segs, kind="stable")
        node_ids = all_ids[order]
        node_segs = all_segs[order]
        node_counts = np.bincount(all_segs, minlength=num_segments)
        node_splits = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(node_counts, out=node_splits[1:])
        mid = time.perf_counter()

        # induce every segment's subgraph with one gather: keep edges
        # whose source is a member of the destination's own segment
        srcs, offsets = graph.gather_neighbors(node_ids)
        dst_idx = np.repeat(
            np.arange(len(node_ids), dtype=np.int64), np.diff(offsets)
        )
        edge_ce = node_segs[dst_idx] * num_nodes + srcs
        node_ce = node_segs * num_nodes + node_ids
        sorter = np.argsort(node_ce, kind="stable")
        node_ce_sorted = node_ce[sorter]
        pos = np.searchsorted(node_ce_sorted, edge_ce)
        found = pos < len(node_ce_sorted)
        found[found] = node_ce_sorted[pos[found]] == edge_ce[found]
        edge_src = sorter[pos[found]]  # merged source-row positions
        edge_dst = dst_idx[found]
        full = Block(
            src_ids=node_ids,
            num_dst=len(node_ids),
            edge_src=edge_src,
            edge_dst=edge_dst,
            src_splits=node_splits,
            dst_splits=node_splits,
        )
        # last layer: narrow destinations to each segment's seed prefix
        dst_seg = node_segs[edge_dst]
        dst_local = edge_dst - node_splits[dst_seg]
        keep = dst_local < seed_counts[dst_seg]
        last = Block(
            src_ids=node_ids,
            num_dst=int(seed_splits[-1]),
            edge_src=edge_src[keep],
            edge_dst=seed_splits[dst_seg[keep]] + dst_local[keep],
            src_splits=node_splits,
            dst_splits=seed_splits,
        )
        return MergedFrontier(
            blocks=[full] * (self.num_layers - 1) + [last],
            seeds=part_ids[0],
            request_rows=seed_splits,
            sample_s=mid - start,
            merge_s=time.perf_counter() - mid,
        )