"""Online inference serving runtime.

The training side of this repository (paper conf_ipps_LinCGJJP24)
optimises epoch throughput; this subpackage is the *serving* vertical
layered on the same runtime substrate: a frozen
:class:`~repro.serve.snapshot.ModelSnapshot` exported from a trained
engine, a deadline-aware :class:`~repro.serve.batcher.MicroBatcher`
coalescing per-node requests, an LRU
:class:`~repro.serve.cache.EmbeddingCache` over predictions, an
:class:`~repro.serve.engine.InferenceEngine` that runs forward-only
sampled inference inline or across the persistent
:class:`~repro.exec.pool.WorkerPool` (each micro-batch split by request
index into one contiguous chunk per rank), and a synthetic Zipf/Poisson
workload driver (:mod:`repro.serve.workload`) with admission control
reporting throughput and tail latency.  Every micro-batch runs one
forward through the shared-frontier merger
(:mod:`repro.serve.frontier` — one vectorised forward per batch,
bit-identical to the per-node reference :func:`predict_nodes`), live
engines hot-swap snapshots via :meth:`InferenceEngine.reload` without
relaunching their pool, and :func:`slo_objective` scores a run against
a p99 latency SLO.

Live graphs: a deployed engine accepts streaming topology updates via
:meth:`InferenceEngine.apply_delta` — append-only
:class:`~repro.graph.delta.GraphDelta` batches layer onto the frozen
snapshot without a rebuild or pool relaunch, the cache is invalidated
only over the delta's reverse-reachable set, and the workload driver
interleaves a Poisson update stream (:func:`make_update_stream`) with
Zipf reads, reporting freshness alongside latency.
"""

from repro.serve.batcher import BatchStats, MicroBatcher, Request
from repro.serve.cache import CacheStats, EmbeddingCache
from repro.serve.engine import DeltaReceipt, InferenceEngine, RankStats, predict_nodes
from repro.serve.frontier import MergedFrontier, merge_frontiers, predict_frontier
from repro.serve.snapshot import ModelSnapshot
from repro.serve.workload import (
    ServingReport,
    make_update_stream,
    merge_reports,
    run_serving_workload,
    slo_objective,
    zipf_nodes,
)

__all__ = [
    "BatchStats",
    "MicroBatcher",
    "Request",
    "CacheStats",
    "EmbeddingCache",
    "DeltaReceipt",
    "InferenceEngine",
    "RankStats",
    "predict_nodes",
    "MergedFrontier",
    "merge_frontiers",
    "predict_frontier",
    "ModelSnapshot",
    "ServingReport",
    "make_update_stream",
    "merge_reports",
    "run_serving_workload",
    "slo_objective",
    "zipf_nodes",
]
