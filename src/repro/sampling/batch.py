"""Vectorised multi-seed frontier sampling and the merged-frontier layout.

The serving hot path used to sample each request node with its own
``sampler.sample`` call — one candidate gather, one sort and one block
assembly *per node* — and then concatenate the per-node blocks with
:func:`merge_frontiers`.  After the merged forward was vectorised, that
Python loop was ~80% of merged service time.  This module fuses the
loop: :meth:`~repro.sampling.neighbor.NeighborSampler.sample_merged`
and :meth:`~repro.sampling.shadow.ShadowSampler.sample_merged` draw a
whole micro-batch's frontiers in one NumPy pass per layer and emit the
block-diagonal :class:`MergedFrontier` directly, bit-identical to the
looped sample-then-merge path; the looped path runs the same kernels
(:func:`sample_layer`, :func:`assemble_block`) over a single segment.

RNG draw-order contract
-----------------------
Bit-identity rests on a strict contract about *where random numbers
come from and in what order they are consumed*:

* every request segment draws from **its own** generator (serving: the
  per-node ``derive_rng(seed, "serve", node)`` stream; training: the
  per-step ``derive_rng(seed, "batch", epoch, rank, step)`` stream) —
  segments never share or interleave streams;
* a frontier node with ``deg <= fanout`` takes every in-edge, in
  adjacency order, and draws nothing;
* per segment and per layer, the nodes with ``deg > fanout`` (the
  *drawing* nodes) make exactly one
  ``rng.integers(0, bounds, dtype=np.int64)`` call, where ``bounds`` is
  the ``(drawing nodes, fanout)`` matrix, rows in frontier order, with
  ``bounds[r, i] = deg_r - fanout + i + 1``; a segment with no drawing
  node makes **no call at all**.  Degrees and positions refer to the
  graph view's adjacency — for a :class:`~repro.graph.delta.LayeredCSR`
  the *merged* one, base slice then delta slices per node.

The draws never depend on earlier picks, so the whole matrix comes from
that one call, and :func:`sample_layer` turns each row into ``fanout``
distinct positions by Floyd's algorithm (Bentley and Floyd, "A sample
of brilliance", CACM 1987): step ``i`` takes its draw
``t_i ~ U[0, deg - fanout + i]`` unless an earlier step already took
it, in which case it takes ``deg - fanout + i`` itself.  Every
``fanout``-subset of a node's edges is equally likely, and a node's
winners depend on its own row only.  The looped path is the one-segment
case of the same call, so per-node == frontier, inline == process ==
pool, trace on == off and post-delta == cold materialised all hold by
construction.

Everything around the draws is vectorised across segments
(:func:`sample_layer`): one :meth:`~repro.graph.csr.GraphView.in_degree`
lookup over the concatenated frontier, Floyd's steps over the
``(drawing nodes, fanout)`` matrix, winners emitted in ascending
position within each node, one
:meth:`~repro.graph.csr.GraphView.gather_edges` reading the ids at those
positions only, and one composite-key block build
(:func:`assemble_block`) producing ``src_splits`` / ``dst_splits`` /
``dst_positions`` without materialising per-request MiniBatches.

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

from repro.graph.csr import GraphView
from repro.sampling.block import Block, MiniBatch

__all__ = [
    "MergedFrontier",
    "merge_frontiers",
    "validate_merged",
    "sample_layer",
    "assemble_block",
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
    ``sample_s``/``merge_s`` are the seconds the sampling pass spent
    drawing frontiers and assembling the merged layout, measured where
    each happens (zero when the frontier was merged from given batches).
    """

    blocks: list[Block]
    seeds: np.ndarray
    request_rows: np.ndarray
    sample_s: float = 0.0
    merge_s: float = 0.0

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


def sample_layer(
    graph: GraphView,
    frontier: np.ndarray,
    fanout: int,
    rngs: Sequence[np.random.Generator],
    splits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One layer of uniform without-replacement neighbour sampling.

    The per-layer step every sampler path shares.  Request segment ``k``
    is ``frontier[splits[k]:splits[k + 1]]`` and draws from ``rngs[k]``
    (the module docstring's draw-order contract).  Returns ``(src,
    dst_pos)``: global neighbour ids and the frontier position each
    sampled edge points to, each node's ``min(deg, fanout)`` edges
    together and in ascending adjacency position.  Only the winners'
    ids are read from the adjacency arrays.
    """
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    degs = graph.in_degree(frontier)
    counts = np.minimum(degs, fanout)
    starts = np.zeros(len(frontier) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    dst_pos = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
    # a node that keeps every edge reads positions 0..deg-1
    local = np.arange(starts[-1], dtype=np.int64) - starts[dst_pos]
    drawing = np.flatnonzero(degs > fanout)
    if len(drawing):
        steps = np.arange(fanout, dtype=np.int64)
        bounds = (degs[drawing] - fanout + 1)[:, None] + steps
        # picks are kept step-major, so that each step reads a contiguous row
        picks = np.empty((fanout, len(drawing)), dtype=np.int64)
        rows = np.searchsorted(drawing, splits)
        for rng, r0, r1 in zip(rngs, rows[:-1], rows[1:]):
            if r1 > r0:
                picks.T[r0:r1] = rng.integers(0, bounds[r0:r1], dtype=np.int64)
        # Floyd: a draw an earlier step took is replaced by the step's
        # own top position, which no earlier step could reach
        for i in range(1, fanout):
            taken = (picks[:i] == picks[i]).any(axis=0)
            np.copyto(picks[i], bounds[:, i] - 1, where=taken)
        picks.sort(axis=0)
        local[starts[drawing][:, None] + steps] = picks.T
    return graph.gather_edges(frontier, dst_pos, local), dst_pos


def assemble_block(
    frontier: np.ndarray,
    src_global: np.ndarray,
    dst_pos: np.ndarray,
    splits: np.ndarray | None = None,
    num_nodes: int = 0,
) -> Block:
    """Assemble a block from sampled edges in (global-src, dst-position) form.

    Source rows are the destination prefix followed by the newly seen
    neighbours in ascending id order, so the prefix convention holds by
    construction.  With ``splits`` the frontier is several requests'
    destinations concatenated and each request gets that layout for
    itself, never deduplicated against its neighbours: ids become
    composite keys ``seg * num_nodes + id``, which makes the one
    ``np.unique`` below an independent unique per segment (segments
    occupy disjoint ``num_nodes``-strided ranges).

    Each unique key is either a destination (one ``searchsorted`` of the
    frontier into the uniques finds those) and takes that row, or is new
    and takes the next row after its segment's destinations; edges read
    their source row through the unique's inverse.
    """
    num_dst = len(frontier)
    if splits is None:
        frontier_key, edge_key = frontier, src_global
    else:
        splits = np.asarray(splits, dtype=np.int64)
        num_segments = len(splits) - 1
        frontier_seg = np.repeat(np.arange(num_segments, dtype=np.int64), np.diff(splits))
        frontier_key = frontier_seg * num_nodes + frontier
        edge_key = frontier_seg[dst_pos] * num_nodes + src_global
    uniq, inverse = np.unique(edge_key, return_inverse=True)
    # a frontier key past the last unique lands on the -1, which no key equals
    pos = np.searchsorted(uniq, frontier_key)
    seen = np.flatnonzero(np.append(uniq, -1)[pos] == frontier_key)
    is_extra = np.ones(len(uniq), dtype=bool)
    is_extra[pos[seen]] = False
    extra = uniq[is_extra]
    dst_rows = np.arange(num_dst, dtype=np.int64)
    extra_rows = np.arange(len(extra), dtype=np.int64)
    if splits is None:
        src_splits = None
        extra_rows += num_dst
    else:
        # segment k's rows are its destinations, then its extras: both
        # shift by the extras of the segments before it
        extra_seg = extra // num_nodes
        extra -= extra_seg * num_nodes
        extras_before = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(np.bincount(extra_seg, minlength=num_segments), out=extras_before[1:])
        src_splits = splits + extras_before
        dst_rows += extras_before[frontier_seg]
        extra_rows += splits[extra_seg + 1]
    src_ids = np.empty(num_dst + len(extra), dtype=np.int64)
    src_ids[dst_rows] = frontier
    src_ids[extra_rows] = extra
    row_of_uniq = np.empty(len(uniq), dtype=np.int64)
    row_of_uniq[pos[seen]] = dst_rows[seen]
    row_of_uniq[is_extra] = extra_rows
    return Block(
        src_ids=src_ids,
        num_dst=num_dst,
        edge_src=row_of_uniq[inverse],
        edge_dst=dst_pos,
        src_splits=src_splits,
        dst_splits=splits,
    )


def estimate_request_costs(
    graph, node_ids: np.ndarray, fanouts: Sequence[int] | None = None
) -> np.ndarray:
    """Per-request frontier-cost estimates (RNG-free).

    Uniform without-replacement sampling keeps exactly ``min(deg, fanout)``
    neighbours per node, so the *size* of a request's hop-1 frontier is a
    deterministic function of its seed's in-degree even though the
    neighbour identities are random — one vectorised
    :meth:`~repro.graph.csr.GraphView.in_degree` lookup gives it exactly.
    Deeper hops expand geometrically and are estimated with saturated
    fanouts (each hop-1 neighbour contributes a full ``fanout`` at every
    deeper layer) — an upper-bound-shaped proxy that preserves the cost
    ordering of requests.

    The probe never touches an RNG stream (the serving
    ``derive_rng(seed, "serve", node)`` generators are consumed solely
    inside the samplers).  Costs are ``>= 1`` so zero-degree seeds still
    carry their forward cost.
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
