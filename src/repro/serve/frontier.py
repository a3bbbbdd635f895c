"""The serving forward: one vectorised forward per micro-batch.

Serving every request alone (the per-node reference,
:func:`repro.serve.engine.predict_nodes`) is bit-exact and
cache-friendly, but each request pays the full Python/op overhead of an
``L``-layer forward on a tiny graph.  :func:`predict_frontier` amortises
that twice over: the per-node frontiers (each still drawn from its own
``derive_rng(seed, "serve", node)`` stream, so *the sampled subgraphs
are unchanged*) are produced by one fused multi-seed sampling pass
(:meth:`~repro.sampling.base.Sampler.sample_merged`, vectorised for the
neighbor/shadow samplers in :mod:`repro.sampling.batch`) that emits the
block-diagonal union per layer directly, and the whole micro-batch then
runs through a single model forward.  A micro-batch of one node skips
the merge: its own ``sampler.sample`` blocks are the one-segment union.

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
  per-node draw order (at most one ``rng.integers(0, bounds)`` per node
  per layer, for the frontier nodes with more than ``fanout`` in-edges —
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
    """Predictions for ``node_ids``, one row each: the serving forward.

    Samples the whole micro-batch in one fused pass — each node still
    draws from its own ``(seed, "serve", node)`` stream, identical to
    the per-node reference — and runs one model forward over the merged
    union.  A single node is sampled with ``sampler.sample`` instead:
    ordinary prefix blocks, the same BLAS geometry and edge order as a
    one-segment union, without the segment bookkeeping.  Bit-identical
    to :func:`~repro.serve.engine.predict_nodes` (see the module
    docstring).  ``phases`` (a :class:`~repro.utils.phases.PhaseStats`)
    receives the sample/merge/forward time split (a single node books
    all of its sampling as ``sample``); an enabled ``recorder`` gets
    sample/merge/forward spans (the sample/merge boundary inside the
    fused pass is reconstructed from the phase counters' delta, since
    the pass measures its own split internally; a single node's merge
    span has zero length).
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size == 0:
        return empty_predictions(model)
    was_training = model.training
    model.eval()
    try:
        with inference_mode():
            rngs = [derive_rng(seed, "serve", int(node)) for node in node_ids]
            t0 = time.perf_counter()
            if len(node_ids) == 1:
                blocks = sampler.sample(graph, node_ids, rng=rngs[0]).blocks
                start = time.perf_counter()
                sample_s = start - t0
                if phases is not None:
                    phases.sample_s += sample_s
            else:
                before = phases.sample_s if phases is not None else 0.0
                blocks = sampler.sample_merged(
                    graph,
                    [node_ids[i : i + 1] for i in range(len(node_ids))],
                    rngs,
                    phases=phases,
                ).blocks
                start = time.perf_counter()
                sample_s = phases.sample_s - before if phases is not None else start - t0
            x = gather_rows(features, blocks[0].src_ids)
            out = model(blocks, x)
            if phases is not None or recorder.enabled:
                end = time.perf_counter()
                if phases is not None:
                    phases.forward_s += end - start
                if recorder.enabled:
                    split = min(start, t0 + sample_s)
                    recorder.record(SPAN_SAMPLE, t0, split, len(node_ids))
                    recorder.record(SPAN_MERGE, split, start, len(node_ids))
                    recorder.record(SPAN_FORWARD, start, end, len(node_ids))
    finally:
        model.train(was_training)
    return np.array(out.data, copy=True)
