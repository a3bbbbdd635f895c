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
]

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