"""Shared-frontier batched inference: one vectorised forward per micro-batch.

The per-node serving path (:func:`repro.serve.engine.predict_nodes`)
forwards every request alone — bit-exact and cache-friendly, but each
request pays the full Python/op overhead of an ``L``-layer forward on a
tiny graph.  The frontier path amortises that twice over: the per-node
frontiers (each still drawn from its own ``derive_rng(seed, "serve",
node)`` stream, so *the sampled subgraphs are unchanged*) are produced
by one fused multi-seed sampling pass
(:meth:`~repro.sampling.base.Sampler.sample_merged`, vectorised for the
neighbor/shadow samplers in :mod:`repro.sampling.batch`) that emits the
block-diagonal union per layer directly, and the whole micro-batch then
runs through a single model forward.

Numerics contract
-----------------
Merged predictions are **bit-identical** to per-node inference, by
construction rather than by tolerance:

* every request keeps its own rows — frontiers are *not* deduplicated
  across requests, because two requests sampling the same node draw
  different neighbour multisets from their per-node RNG streams.  Each
  destination row therefore aggregates exactly the neighbour multiset
  its solo forward would have, through per-request segment offsets into
  the merged edge list (``Block.src_splits`` / ``dst_splits``);
* the fused sampler consumes each node's RNG stream in the exact
  per-node draw order (one ``rng.random(deg_sum)`` per node per layer —
  the draw-order contract in :mod:`repro.sampling.batch`), so the
  sampled frontiers themselves are bit-identical to looped per-node
  sampling;
* the aggregation SpMM and gather backward (:mod:`repro.gnn.aggregate`,
  :class:`repro.autograd.ops.EdgeOperator`) accumulate per destination
  row in edge order, and merged edges stay request-contiguous in their
  original order — identical partial-sum order per row;
* dense projections go through the segmented matmul
  (:func:`repro.autograd.ops.linear` with ``row_splits``): one BLAS call
  per request segment, reproducing the solo call geometry exactly.  One
  big product would *not* be bit-stable — BLAS picks different kernels
  and accumulation orders for different row counts.

What remains shared is everything Python: one sampling pass and one op
graph per layer instead of one per request, one feature gather, one
scatter-add over the union edge list.
``bench_fig10_frontier_batching`` records the resulting service-time
reduction and its per-phase breakdown.
"""

from __future__ import annotations

import time

import numpy as np

from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor, inference_mode
from repro.obs.trace import NULL_RECORDER, SPAN_FORWARD, SPAN_MERGE, SPAN_SAMPLE
from repro.sampling.batch import MergedFrontier, merge_frontiers, validate_merged
from repro.utils.rng import derive_rng

__all__ = [
    "MergedFrontier",
    "merge_frontiers",
    "validate_merged",
    "predict_frontier",
    "empty_predictions",
    "SHARD_POLICIES",
    "plan_shards",
    "segment_bins",
    "steal_order",
]

#: how a pool micro-batch's requests map onto ranks — ``chunk`` splits by
#: request index (the historical layout), ``size_binned`` LPT-packs by
#: sampled frontier cost, ``steal`` adds run-time segment stealing on top
#: of the size-binned plan.  Any policy is bit-identical to any other:
#: predictions are per-request pure functions of ``(weights, seed, node)``
#: (per-request RNG streams + segment-local ``row_splits`` BLAS calls), so
#: the assignment only moves work, never changes it.
SHARD_POLICIES = ("chunk", "size_binned", "steal")


def plan_shards(
    num_requests: int,
    num_ranks: int,
    *,
    policy: str = "chunk",
    costs: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Assign request positions ``0..num_requests`` to ``num_ranks`` bins.

    ``chunk`` reproduces the historical ``np.array_split`` layout exactly
    (contiguous, near-equal *counts*).  ``size_binned`` (and ``steal``,
    which starts from the same bins) runs LPT greedy bin-packing over
    ``costs``: requests sorted by descending cost, each assigned to the
    currently lightest bin — the classic 4/3-approximation to minimum
    makespan.  Bins keep their assignment order (descending cost), so a
    bin's tail is its cheapest work — the natural grain for stealing.

    Returns one ``int64`` index array per rank; the arrays partition
    ``arange(num_requests)`` exactly, whatever the policy — reassembly
    scatters each bin's result rows back through its index array.
    Deterministic: ties break by request position (stable sort) and by
    lowest rank id, so the same inputs always produce the same plan.
    """
    if policy not in SHARD_POLICIES:
        raise ValueError(
            f"unknown shard policy {policy!r}; known: {SHARD_POLICIES}"
        )
    num_ranks = max(1, int(num_ranks))
    positions = np.arange(num_requests, dtype=np.int64)
    if policy == "chunk" or num_ranks == 1:
        return list(np.array_split(positions, num_ranks))
    if costs is None:
        costs = np.ones(num_requests, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    if len(costs) != num_requests:
        raise ValueError(
            f"costs carries {len(costs)} entries for {num_requests} requests"
        )
    order = np.argsort(-costs, kind="stable")
    loads = np.zeros(num_ranks, dtype=np.float64)
    bins: list[list[int]] = [[] for _ in range(num_ranks)]
    for pos in order:
        rank = int(np.argmin(loads))  # argmin ties break to lowest rank
        bins[rank].append(int(pos))
        loads[rank] += costs[pos]
    return [np.asarray(b, dtype=np.int64) for b in bins]


def segment_bins(
    bins: list[np.ndarray], costs: np.ndarray | None, *, grain: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cut per-rank bins into stealable segments of ``<= grain`` requests.

    Returns ``(order, seg_splits, rank_splits, bin_weights)``:
    ``order`` is the bin-concatenated permutation of request positions,
    ``seg_splits`` delimits segments inside ``order``, ``rank_splits``
    delimits each rank's contiguous segment range, and ``bin_weights``
    is each bin's total cost (the steal-priority signal — drained ranks
    raid the heaviest peer first).  Segments never straddle bins, so a
    stolen segment is whole requests from exactly one victim.
    """
    grain = max(1, int(grain))
    order = (
        np.concatenate(bins)
        if bins
        else np.zeros(0, dtype=np.int64)
    )
    seg_bounds = [0]
    rank_splits = np.zeros(len(bins) + 1, dtype=np.int64)
    base = 0
    for rank, b in enumerate(bins):
        for start in range(0, len(b), grain):
            seg_bounds.append(base + min(start + grain, len(b)))
        base += len(b)
        rank_splits[rank + 1] = len(seg_bounds) - 1
    seg_splits = np.asarray(seg_bounds, dtype=np.int64)
    if costs is None:
        bin_weights = np.asarray([float(len(b)) for b in bins])
    else:
        costs = np.asarray(costs, dtype=np.float64)
        bin_weights = np.asarray([float(costs[b].sum()) for b in bins])
    return order, seg_splits, rank_splits, bin_weights


def steal_order(
    rank: int, rank_splits: np.ndarray, bin_weights: np.ndarray
) -> np.ndarray:
    """Rank ``rank``'s claim-priority walk over every segment.

    Own segments first in plan order (LPT put the expensive requests at
    the bin's head), then each peer's segments — heaviest peer first,
    peer segments from the *tail* (the victim works head-to-tail, the
    thief steals tail-to-head, so contention concentrates only when the
    bin is nearly drained).  Every rank's walk covers all segments, so
    the batch completes even if peers die mid-claim or never start.
    Deterministic per rank: ties in peer weight break by rank id.
    """
    rank_splits = np.asarray(rank_splits, dtype=np.int64)
    own = np.arange(rank_splits[rank], rank_splits[rank + 1], dtype=np.int64)
    n = len(rank_splits) - 1
    peers = [p for p in range(n) if p != rank]
    # descending weight, ties by rank id (stable sort over -weight)
    peers.sort(key=lambda p: (-float(bin_weights[p]), p))
    tails = [
        np.arange(rank_splits[p + 1] - 1, rank_splits[p] - 1, -1, dtype=np.int64)
        for p in peers
    ]
    return np.concatenate([own] + tails) if tails else own


def empty_predictions(model) -> np.ndarray:
    """The ``(0, out_dim)`` result an empty serving request maps to.

    The empty-input shape must match a non-empty request's output width
    so callers can concatenate/stack results unconditionally; every
    model exposes its layer widths as ``model.dims``.
    """
    dims = getattr(model, "dims", None)
    width = int(dims[-1]) if dims else 0
    return np.zeros((0, width), dtype=np.float32)


def predict_frontier(
    model,
    graph,
    features: Tensor,
    sampler,
    node_ids,
    *,
    seed: int,
    phases=None,
    recorder=NULL_RECORDER,
) -> np.ndarray:
    """Frontier-batched counterpart of :func:`~repro.serve.engine.predict_nodes`.

    Samples the whole micro-batch in one fused pass — each node still
    draws from its own ``(seed, "serve", node)`` stream, identical to
    the per-node path — and runs one model forward over the merged
    union.  Bit-identical to per-node inference (see the module
    docstring); returns one row per node.  ``phases`` (a
    :class:`~repro.utils.phases.PhaseStats`) receives the
    sample/merge/forward time split; an enabled ``recorder`` gets
    sample/merge/forward spans (the sample/merge boundary inside the
    fused pass is reconstructed from the phase counters' delta, since
    the pass measures its own split internally).
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size == 0:
        return empty_predictions(model)
    was_training = model.training
    model.eval()
    try:
        with inference_mode():
            if recorder.enabled and phases is not None:
                sample_before = phases.sample_s
            rngs = [derive_rng(seed, "serve", int(node)) for node in node_ids]
            t0 = time.perf_counter() if recorder.enabled else 0.0
            merged = sampler.sample_merged(
                graph,
                [node_ids[i : i + 1] for i in range(len(node_ids))],
                rngs,
                phases=phases,
            )
            start = time.perf_counter()
            x = gather_rows(features, merged.input_ids)
            out = model(merged.blocks, x)
            if phases is not None or recorder.enabled:
                end = time.perf_counter()
                if phases is not None:
                    phases.forward_s += end - start
                if recorder.enabled:
                    if phases is not None:
                        split = min(start, t0 + (phases.sample_s - sample_before))
                        recorder.record(SPAN_SAMPLE, t0, split, len(node_ids))
                        recorder.record(SPAN_MERGE, split, start, len(node_ids))
                    else:
                        recorder.record(SPAN_SAMPLE, t0, start, len(node_ids))
                    recorder.record(SPAN_FORWARD, start, end, len(node_ids))
    finally:
        model.train(was_training)
    return np.array(out.data, copy=True)