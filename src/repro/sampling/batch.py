"""Vectorised multi-seed frontier sampling and the merged-frontier layout.

The serving hot path used to sample each request node with its own
``sampler.sample`` call — one CSR gather, one lexsort and one block
assembly *per node* — and then concatenate the per-node blocks with
:func:`merge_frontiers`.  After the merged forward was vectorised, that
Python loop was ~80% of merged service time.  This module fuses the
loop: :meth:`~repro.sampling.neighbor.NeighborSampler.sample_merged`
and :meth:`~repro.sampling.shadow.ShadowSampler.sample_merged` draw a
whole micro-batch's frontiers in one NumPy pass per layer and emit the
block-diagonal :class:`MergedFrontier` directly, bit-identical to the
looped sample-then-merge path.

RNG draw-order contract
-----------------------
Bit-identity rests on a strict contract about *where random numbers
come from and in what order they are consumed*:

* every request segment draws from **its own** generator (serving: the
  per-node ``derive_rng(seed, "serve", node)`` stream; training: the
  per-step ``derive_rng(seed, "batch", epoch, rank, step)`` stream) —
  segments never share or interleave streams;
* per segment and per layer, the looped path makes exactly one
  ``rng.random(deg_sum)`` call over that segment's candidate edges — in
  frontier order, candidates in the graph view's adjacency order (for a
  :class:`~repro.graph.delta.LayeredCSR` that is the *merged* order —
  base slice then delta slices per node — and ``deg_sum`` includes
  delta edges) — and makes **no call at all** when the segment has zero
  candidates
  (:func:`repro.sampling.neighbor.sample_neighbors_uniform` returns
  before drawing).  :func:`draw_segment_keys` reproduces both rules
  exactly, so each stream is consumed identically;
* the without-replacement choice is a random-key sort: each frontier
  node keeps its ``min(fanout, deg)`` lowest keys, in ascending key
  order, ties broken by candidate position.  A node's outcome depends
  on its own keys only, so one *global* :func:`select_by_keys` call
  equals the per-segment calls.  The selection is exact but not a full
  sort: keys arrive already drawn, and only the candidates that can win
  (about ``2 * fanout + 8`` per node) are sorted — the prefilter reads
  the keys, never the generators, so the draw order above is untouched.

Everything downstream of the key draws is then free to vectorise across
segments: one :meth:`~repro.graph.csr.CSRGraph.gather_neighbors` over
the concatenated frontier, one segmented key selection
(:func:`select_by_keys`), and one composite-key block build
(:func:`build_merged_block`) that produces ``src_splits`` /
``dst_splits`` / ``dst_positions`` without materialising per-request
MiniBatches.  Composite keys ``seg * num_nodes + global_id`` make one
``np.unique``/``searchsorted`` act as an independent per-segment
unique/lookup (segments cannot collide across the ``num_nodes``
stride).

The numerics contract of the merged layout itself (why requests are
never deduplicated against each other, why edges stay
request-contiguous, why the matmul stays segmented) is documented with
:func:`merge_frontiers` below and enforced by
:func:`validate_merged`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sampling.block import Block, MiniBatch

__all__ = [
    "MergedFrontier",
    "merge_frontiers",
    "split_merged",
    "validate_merged",
    "draw_segment_keys",
    "select_by_keys",
    "build_merged_block",
    "check_seed_batches",
    "estimate_request_costs",
]


@dataclass
class MergedFrontier:
    """One micro-batch's union subgraph plus its per-request bookkeeping.

    ``blocks`` satisfy the model-forward chain exactly like a single
    request's blocks do (layer ``l``'s merged destination rows are layer
    ``l+1``'s merged source rows); ``request_rows`` maps request ``k`` to
    its output-row range ``[request_rows[k], request_rows[k + 1])`` of
    the final layer — one row per request for single-node serving.
    """

    blocks: list[Block]
    seeds: np.ndarray
    request_rows: np.ndarray

    @property
    def num_requests(self) -> int:
        return len(self.request_rows) - 1

    @property
    def input_ids(self) -> np.ndarray:
        """Global ids whose raw features feed the first merged layer."""
        return self.blocks[0].src_ids

    @property
    def total_src_nodes(self) -> int:
        return sum(b.num_src for b in self.blocks)


def merge_frontiers(batches: list[MiniBatch]) -> MergedFrontier:
    """Concatenate per-request :class:`MiniBatch` frontiers block-diagonally.

    Layer ``l``'s merged block is the disjoint union of every request's
    layer-``l`` block: source/destination rows are request-concatenated,
    local edge endpoints are shifted by their request's segment offset,
    and the segment offsets ride along as ``src_splits``/``dst_splits``
    so the GNN layers can keep per-request BLAS geometry.  Requests stay
    fully independent inside the merge — no rows are shared, because two
    requests sampling the same node draw different neighbour multisets
    from their own RNG streams — which is exactly what preserves
    per-request numerics bit-for-bit.

    This is the reference implementation of the merged layout; the
    vectorised ``sample_merged`` paths emit the same structure directly
    and are tested bit-identical against it.
    """
    if not batches:
        raise ValueError("merge_frontiers needs at least one MiniBatch")
    num_layers = batches[0].num_layers
    if any(mb.num_layers != num_layers for mb in batches):
        raise ValueError("all requests must have the same number of layers")
    merged_blocks: list[Block] = []
    for layer in range(num_layers):
        blocks = [mb.blocks[layer] for mb in batches]
        src_splits = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum([b.num_src for b in blocks], out=src_splits[1:])
        dst_splits = np.zeros(len(blocks) + 1, dtype=np.int64)
        np.cumsum([b.num_dst for b in blocks], out=dst_splits[1:])
        merged_blocks.append(
            Block(
                src_ids=np.concatenate([b.src_ids for b in blocks]),
                num_dst=int(dst_splits[-1]),
                edge_src=np.concatenate(
                    [b.edge_src + off for b, off in zip(blocks, src_splits[:-1])]
                ),
                edge_dst=np.concatenate(
                    [b.edge_dst + off for b, off in zip(blocks, dst_splits[:-1])]
                ),
                src_splits=src_splits,
                dst_splits=dst_splits,
            )
        )
    request_rows = np.zeros(len(batches) + 1, dtype=np.int64)
    np.cumsum([len(mb.seeds) for mb in batches], out=request_rows[1:])
    return MergedFrontier(
        blocks=merged_blocks,
        seeds=np.concatenate([mb.seeds for mb in batches]),
        request_rows=request_rows,
    )


def split_merged(merged: MergedFrontier) -> list[MiniBatch]:
    """Slice a :class:`MergedFrontier` back into per-request MiniBatches.

    The exact inverse of :func:`merge_frontiers` (label-less): because
    merged edges are request-contiguous and ``edge_dst`` is
    non-decreasing, each request's edge range is recovered with one
    ``searchsorted`` against ``dst_splits``.  The training loader uses
    this to sample a span of batches in one fused pass and still hand
    the trainer ordinary per-step MiniBatches.
    """
    out: list[MiniBatch] = []
    layer_edges = [
        np.searchsorted(blk.edge_dst, blk.dst_splits, side="left")
        for blk in merged.blocks
    ]
    for k in range(merged.num_requests):
        blocks = []
        for blk, e_splits in zip(merged.blocks, layer_edges):
            s0, s1 = blk.src_splits[k], blk.src_splits[k + 1]
            d0, d1 = blk.dst_splits[k], blk.dst_splits[k + 1]
            e0, e1 = e_splits[k], e_splits[k + 1]
            blocks.append(
                Block(
                    src_ids=blk.src_ids[s0:s1],
                    num_dst=int(d1 - d0),
                    edge_src=blk.edge_src[e0:e1] - s0,
                    edge_dst=blk.edge_dst[e0:e1] - d0,
                )
            )
        seeds = merged.seeds[merged.request_rows[k] : merged.request_rows[k + 1]]
        out.append(MiniBatch(seeds=seeds, blocks=blocks))
    return out


def validate_merged(merged: MergedFrontier, batches: list[MiniBatch]) -> None:
    """Assert the merged layout maps back onto every solo frontier.

    The debugging/test-battery counterpart of :func:`merge_frontiers`:
    for each request segment and layer, the sliced-out rows and
    offset-corrected edges must equal the request's own block, and the
    layer chain (merged destinations == next layer's merged sources)
    must hold.  Raises ``AssertionError`` on any violation.
    """
    assert merged.num_requests == len(batches)
    for layer, blk in enumerate(merged.blocks):
        assert blk.num_segments == len(batches)
        # per-request segment round-trip
        edge_seg = np.searchsorted(blk.src_splits, blk.edge_src, side="right") - 1
        for k, mb in enumerate(batches):
            solo = mb.blocks[layer]
            s0, s1 = blk.src_splits[k], blk.src_splits[k + 1]
            d0, d1 = blk.dst_splits[k], blk.dst_splits[k + 1]
            assert s1 - s0 == solo.num_src and d1 - d0 == solo.num_dst
            assert np.array_equal(blk.src_ids[s0:s1], solo.src_ids)
            mask = edge_seg == k
            assert int(mask.sum()) == solo.num_edges
            assert np.array_equal(blk.edge_src[mask] - s0, solo.edge_src)
            assert np.array_equal(blk.edge_dst[mask] - d0, solo.edge_dst)
            # edges stay request-contiguous in original order: identical
            # per-row accumulation order in every scatter reduction
            idx = np.flatnonzero(mask)
            assert len(idx) == 0 or np.array_equal(
                idx, np.arange(idx[0], idx[0] + len(idx))
            )
        assert np.array_equal(
            blk.dst_ids, np.concatenate([mb.blocks[layer].dst_ids for mb in batches])
        )
        if layer + 1 < len(merged.blocks):
            # the model chain: this layer's output rows are exactly the
            # next merged block's source rows
            assert np.array_equal(blk.dst_ids, merged.blocks[layer + 1].src_ids)
    assert np.array_equal(merged.blocks[-1].dst_ids, merged.seeds)


# ----------------------------------------------------------------------
# vectorised multi-segment sampling kernels
# ----------------------------------------------------------------------


def check_seed_batches(
    seed_batches: Sequence[np.ndarray], rngs: Sequence[np.random.Generator]
) -> list[np.ndarray]:
    """Validate one seed array + generator per request segment.

    Mirrors ``Sampler.sample``'s own input checks (non-empty, unique
    within a segment) so the fused path rejects exactly what the looped
    path would.
    """
    if not len(seed_batches):
        raise ValueError("sample_merged needs at least one seed batch")
    if len(rngs) != len(seed_batches):
        raise ValueError(
            f"got {len(seed_batches)} seed batches but {len(rngs)} generators"
        )
    out = []
    for seeds in seed_batches:
        seeds = np.asarray(seeds, dtype=np.int64)
        if len(seeds) == 0:
            raise ValueError("cannot sample an empty seed batch")
        if len(np.unique(seeds)) != len(seeds):
            raise ValueError("seed nodes must be unique within a batch")
        out.append(seeds)
    return out


def draw_segment_keys(
    rngs: Sequence[np.random.Generator], seg_counts: np.ndarray
) -> np.ndarray:
    """One uniform sort key per candidate edge, segment-striped.

    Segment ``k``'s ``seg_counts[k]`` keys come from ``rngs[k]`` via a
    single ``rngs[k].random(count)`` call; segments with zero candidates
    draw **nothing** (their stream is untouched).  Both rules match the
    looped path's draws exactly — see the module docstring's RNG
    draw-order contract.
    """
    total = int(seg_counts.sum())
    keys = np.empty(total, dtype=np.float64)
    off = 0
    for rng, count in zip(rngs, seg_counts):
        count = int(count)
        if count:
            keys[off : off + count] = rng.random(count)
            off += count
    return keys


def select_by_keys(
    srcs: np.ndarray, offsets: np.ndarray, fanout: int, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the ``min(fanout, deg)`` lowest-key candidates per frontier node.

    The random-key-sort without-replacement kernel shared by the looped
    (:func:`repro.sampling.neighbor.sample_neighbors_uniform`) and fused
    paths: ``srcs``/``offsets`` are a
    :meth:`~repro.graph.csr.CSRGraph.gather_neighbors` result over the
    (possibly concatenated multi-request) frontier and ``keys`` holds
    one sort key per candidate.  Returns ``(src_global, dst_pos)`` with
    ``dst_pos`` indexing the frontier; a node's kept edges come out in
    ascending key order, ties broken by candidate position.

    The result is that of one stable ``np.lexsort((keys, seg_ids))``
    over every candidate, but only candidates that can win are sorted.
    A node of degree ``deg`` keeps the candidates whose key is under
    ``(2 * fanout + 8) / deg`` (all of them when ``deg`` is at most
    ``2 * fanout + 8``): if at least ``min(deg, fanout)`` keys lie under
    that threshold then so do the ``min(deg, fanout)`` lowest, ties
    included.  A node the threshold starves — fewer survivors than it
    must keep — keeps its whole candidate list instead.  Survivors stay
    in candidate order, so the stable sort breaks ties as the full sort
    would, and one call over a concatenated frontier still equals
    independent per-segment calls.  At fanout 5 on a hub of degree 3000
    this sorts ~18 keys instead of 3000.
    """
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    if len(srcs) == 0:
        return srcs, np.empty(0, dtype=np.int64)
    degs = np.diff(offsets)
    need = np.minimum(degs, fanout)
    budget = 2 * fanout + 8
    thresholds = np.where(degs > budget, budget / np.maximum(degs, 1), np.inf)
    survives = keys < np.repeat(thresholds, degs)
    running = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(survives, out=running[1:])
    kept = np.diff(running[offsets])
    starved = kept < need
    if starved.any():
        survives |= np.repeat(starved, degs)
        kept = np.where(starved, degs, kept)
    cand = np.flatnonzero(survives)
    cand_node = np.repeat(np.arange(len(degs), dtype=np.int64), kept)
    # sort by (frontier position, key): stable grouping with random
    # order inside each node's surviving candidates
    order = np.lexsort((keys[cand], cand_node))
    # rank of each survivor within its node after the random sort
    ranks = np.arange(len(cand)) - np.repeat(np.cumsum(kept) - kept, kept)
    keep = ranks < need[cand_node]
    return srcs[cand[order[keep]]], cand_node[keep]


def build_merged_block(
    frontier: np.ndarray,
    splits: np.ndarray,
    src_global: np.ndarray,
    dst_pos: np.ndarray,
    num_nodes: int,
) -> Block:
    """Assemble one merged block from multi-request sampled edges.

    ``frontier``/``splits`` are the concatenated destination ids and
    their per-request offsets; ``src_global``/``dst_pos`` are the
    sampled edges (``dst_pos`` indexing ``frontier``).  Per request the
    result is exactly :func:`_build_block`'s — destination prefix, then
    the unseen neighbours in ascending id order — but all requests are
    built in one pass over composite keys ``seg * num_nodes + id``
    (one ``np.unique`` is then an independent per-segment unique, since
    segments occupy disjoint ``num_nodes``-strided ranges).
    """
    splits = np.asarray(splits, dtype=np.int64)
    num_segments = len(splits) - 1
    dst_counts = np.diff(splits)
    frontier_seg = np.repeat(np.arange(num_segments, dtype=np.int64), dst_counts)
    # which request each sampled edge belongs to, from its dst position
    edge_seg = np.searchsorted(splits, dst_pos, side="right") - 1
    edge_ce = edge_seg * num_nodes + src_global
    uniq_ce = np.unique(edge_ce)
    # membership of each unique (seg, id) among that segment's destinations
    dst_ce_sorted = np.sort(frontier_seg * num_nodes + frontier)
    pos = np.searchsorted(dst_ce_sorted, uniq_ce)
    found = pos < len(dst_ce_sorted)
    found[found] = dst_ce_sorted[pos[found]] == uniq_ce[found]
    extra_ce = uniq_ce[~found]  # per segment: ascending, disjoint from dsts
    extra_seg = extra_ce // num_nodes
    extra_counts = np.bincount(extra_seg, minlength=num_segments)
    src_counts = dst_counts + extra_counts
    src_splits = np.zeros(num_segments + 1, dtype=np.int64)
    np.cumsum(src_counts, out=src_splits[1:])
    # scatter: each segment's sources are its destination prefix followed
    # by its extra neighbours (ascending) — the solo layout, concatenated
    src_ids = np.empty(int(src_splits[-1]), dtype=np.int64)
    dst_rows = src_splits[frontier_seg] + (
        np.arange(len(frontier), dtype=np.int64) - splits[frontier_seg]
    )
    src_ids[dst_rows] = frontier
    if len(extra_ce):
        extra_splits = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(extra_counts, out=extra_splits[1:])
        extra_rows = (
            src_splits[extra_seg]
            + dst_counts[extra_seg]
            + (np.arange(len(extra_ce), dtype=np.int64) - extra_splits[extra_seg])
        )
        src_ids[extra_rows] = extra_ce - extra_seg * num_nodes
    # edge endpoints: look each (seg, id) up in the merged source rows
    src_seg = np.repeat(np.arange(num_segments, dtype=np.int64), src_counts)
    lookup_ce = src_seg * num_nodes + src_ids
    sorter = np.argsort(lookup_ce, kind="stable")
    edge_src = sorter[np.searchsorted(lookup_ce, edge_ce, sorter=sorter)]
    return Block(
        src_ids=src_ids,
        num_dst=len(frontier),
        edge_src=edge_src,
        edge_dst=dst_pos,
        src_splits=src_splits,
        dst_splits=splits,
    )


def estimate_request_costs(
    graph, node_ids: np.ndarray, fanouts: Sequence[int] | None = None
) -> np.ndarray:
    """Per-request frontier-cost estimates for load balancing (RNG-free).

    Uniform without-replacement sampling keeps exactly ``min(deg, fanout)``
    neighbours per node, so the *size* of a request's hop-1 frontier is a
    deterministic function of its seed's in-degree even though the
    neighbour identities are random — one vectorised
    :meth:`~repro.graph.csr.GraphView.in_degree` lookup gives it exactly.
    Deeper hops expand geometrically and are estimated with saturated
    fanouts (each hop-1 neighbour contributes a full ``fanout`` at every
    deeper layer) — an upper-bound-shaped proxy that preserves the
    ordering LPT bin-packing needs.

    This probe is a **balancing signal only**: it never touches an RNG
    stream (the serving ``derive_rng(seed, "serve", node)`` generators
    are consumed solely inside the samplers) and never influences what
    any request computes — only *where* it runs.  Costs are ``>= 1`` so
    zero-degree seeds still carry their forward cost.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if len(node_ids) == 0:
        return np.zeros(0, dtype=np.float64)
    deg = np.asarray(graph.in_degree(node_ids), dtype=np.float64)
    fanouts = [int(f) for f in fanouts] if fanouts else []
    if not fanouts:
        return 1.0 + deg
    # fanouts[0] caps the hop nearest the seeds (sampler walk order)
    hop1 = np.minimum(deg, float(fanouts[0]))
    deeper = 0.0
    scale = 1.0
    for f in fanouts[1:]:
        scale *= float(f)
        deeper += scale
    return 1.0 + hop1 * (1.0 + deeper)
