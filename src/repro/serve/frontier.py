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
    docstring).  ``recorder`` gets one ``sample``, ``merge`` and
    ``forward`` span each; the fused pass measures its own sample/merge
    split (:class:`MergedFrontier` ``sample_s``/``merge_s``), so the two
    spans run back to back from the start of the pass with exactly those
    lengths.  A single node records no ``merge`` span.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size == 0:
        return empty_predictions(model)
    n = len(node_ids)
    was_training = model.training
    model.eval()
    try:
        with inference_mode():
            rngs = [derive_rng(seed, "serve", int(node)) for node in node_ids]
            t0 = time.perf_counter()
            if n == 1:
                merged = None
                blocks = sampler.sample(graph, node_ids, rng=rngs[0]).blocks
            else:
                merged = sampler.sample_merged(
                    graph, [node_ids[i : i + 1] for i in range(n)], rngs
                )
                blocks = merged.blocks
            start = time.perf_counter()
            x = gather_rows(features, blocks[0].src_ids)
            out = model(blocks, x)
            end = time.perf_counter()
    finally:
        model.train(was_training)
    if merged is None:
        recorder.record(SPAN_SAMPLE, t0, start, n)
    else:
        split = t0 + merged.sample_s
        recorder.record(SPAN_SAMPLE, t0, split, n)
        recorder.record(SPAN_MERGE, split, split + merged.merge_s, n)
    recorder.record(SPAN_FORWARD, start, end, n)
    return np.array(out.data, copy=True)
