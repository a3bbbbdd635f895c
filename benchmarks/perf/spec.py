"""What the perf ledger measures: workloads, metrics, bounds.

The single declaration the harness (``run.py``), the comparison gate
(``compare.py``), the self-test and the root ``BENCHMARK.json`` agree
on.  Standard library only, so the parent harness never pays for a numpy
import.

Every workload reports every end-to-end metric, under one set of names:
the workload's *operation* (``op``) is what one user-visible unit of
work is — an epoch, a request, a micro-batch round trip, one tuning
run — and its *item* is what throughput counts.  Per-layer metrics are
declared once for the whole repo; a layer a workload leaves idle reads
0 there, which is itself the prediction "no change on this workload".
"""

from __future__ import annotations

from dataclasses import dataclass

SCHEMA_VERSION = 1

#: how long one run measures (the driver passes it back as ``--seconds``)
RUN_SECONDS = 10

#: a workload subprocess that runs longer than this is killed and failed
DEADLINE_SECONDS = 150.0

#: the fixed latency limit of the open-loop workload
SLO_MS = 50.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: what one timed operation is, and what ``items_per_s`` counts
    op: str
    item: str
    #: percentile ``op_tail_ms`` reports: one of 50/75/90/95/99 that keeps
    #: at least ten samples beyond it at ``min_ops`` samples.  The open
    #: loop gates on p75, far below what its sample supports: queueing
    #: turns a 25% slower host into a 1.4x p90/p95 and a 2x p99 (measured,
    #: same seed), against 1.25x for p50 and p75, and this VM has such
    #: episodes in up to three runs of ten.  p75 is the median request that
    #: missed the cache; p95 and p99 stay in the ledger as ``serve.*``.
    tail_pct: float
    #: operations measured even when ``--seconds`` runs out first
    min_ops: int


WORKLOADS = (
    Workload(
        "train_sage_inline1",
        "Plain single-worker Neighbor-SAGE baseline; sampling-bound, exec/distributed/shm/pipeline idle, so a gain there must not show here",
        op="epoch", item="train node", tail_pct=50, min_ops=8,
    ),
    Workload(
        "train_sage_proc2",
        "The paper's mechanism: 2 forked ranks over shared memory with all-reduce; only workload with distributed/exec.pool/shm on the training path",
        op="epoch", item="train node", tail_pct=50, min_ops=8,
    ),
    Workload(
        "train_sage_prefetch1",
        "Sampler-core/trainer-core split: a prefetch thread hides sampling behind compute; a sampler that holds the GIL longer wins on the baseline and loses here",
        op="epoch", item="train node", tail_pct=50, min_ops=8,
    ),
    Workload(
        "train_shadow_inline1",
        "ShaDow-GCN, the compute-bound opposite of SAGE: aggregate+GEMM+backward dominate, sampling is a few percent, so a sampler gain must not show here",
        op="epoch", item="train node", tail_pct=50, min_ops=8,
    ),
    Workload(
        "serve_open_zipf_inline",
        "Latency workload: open loop, Poisson 200 req/s, Zipf 1.1, micro-batcher + cache doing real work at ~0.3 utilisation; exec/shm idle",
        op="request (due to done)", item="request", tail_pct=75, min_ops=1000,
    ),
    Workload(
        "serve_drain_uniform_pool2",
        "Saturated pool throughput with the cache bypassed (uniform keys, cache off): counter-workload for cache changes, target for exec.pool/shm serving changes",
        op="batch of 8 round trip", item="request", tail_pct=95, min_ops=200,
    ),
    Workload(
        "serve_drain_deltas_pool2",
        "Writes beside reads: one 8-edge graph delta before every 8th batch; exercises graph.delta, DeltaLog broadcast, scoped cache invalidation, layered sampling",
        op="batch of 8 round trip", item="request", tail_pct=95, min_ops=200,
    ),
    Workload(
        "autotune_sim",
        "The paper's headline claim: BO tuner at ~5% of the space over simulated runtimes; touches only bayesopt/tuning/core.autotuner/platform, all else idle",
        op="round of 4 tuning runs (one per cell)", item="tuner trial", tail_pct=75, min_ops=48,
    ),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end: relative worsening that counts as a regression, also
    #: the A/A agreement bound.  Per-layer metrics have none.
    bound: float | None = None
    #: per-layer: the end-to-end metric and workload this should move
    moves: str = ""


# Every bound is the most the driver contract allows.  Timings: this VM
# moves an identical numpy loop by 15% between back-to-back runs.  RSS:
# with glibc told never to trim, the ShaDow heap settles at 398 MB or at
# 438 MB depending on the seed's allocation order.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("op_tail_ms", "ms", "lower", 0.25),
    Metric("items_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.25),
)

_TRAIN_SAGE = "op_p50_ms on train_sage_*"
_SHADOW = "op_p50_ms on train_shadow_inline1"
_PROC2 = "op_p50_ms on train_sage_proc2"
_OPEN = "op_p50_ms/op_tail_ms on serve_open_zipf_inline"
_DRAINS = "items_per_s on serve_drain_*"
_DELTAS = "items_per_s on serve_drain_deltas_pool2"
_TUNE = "op_p50_ms on autotune_sim"
_STAR2 = "setup_s on *2 workloads"

PER_LAYER = (
    # the ISSUE's workload-specific end-to-end figures, kept by name
    Metric("core.epoch_s", "s", "lower", moves="= op_p50_ms/1000 on train_*"),
    Metric("serve.p50_ms", "ms", "lower", moves=_OPEN),
    Metric("serve.p95_ms", "ms", "lower", moves=_OPEN),
    Metric("serve.p99_ms", "ms", "lower", moves=_OPEN),
    Metric("serve.slo_miss_frac", "ratio", "lower", moves=_OPEN),
    Metric("serve.drain_rps", "1/s", "higher", moves=_DRAINS),
    Metric("serve.update_ms", "ms", "lower", moves=_DELTAS),
    Metric("core.tuned_over_optimal", "ratio", "lower", moves="exact per seed; autotune_sim"),
    Metric("core.tuner_ms_per_search", "ms", "lower", moves=_TUNE),
    # graph
    Metric("graph.dataset_build_s", "s", "lower", moves="none gated (input prep)"),
    Metric("graph.fragment_build_ms", "ms", "lower", moves="serve.update_ms"),
    Metric("graph.layered_view_ms", "ms", "lower", moves="serve.update_ms"),
    Metric("graph.reverse_reachable_ms", "ms", "lower", moves="serve.update_ms"),
    Metric("graph.layered_sample_slowdown", "ratio", "lower", moves=_DELTAS),
    Metric("graph.shm_store_build_ms", "ms", "lower", moves=_STAR2),
    # sampling
    Metric("sampling.neighbor_ms", "ms", "lower", moves=_TRAIN_SAGE),
    Metric("sampling.neighbor_edges_per_s", "1/s", "higher", moves=_TRAIN_SAGE),
    Metric("sampling.sampled_edges", "count", "lower", moves="exact per seed; " + _TRAIN_SAGE),
    Metric("sampling.shadow_ms", "ms", "lower", moves=_SHADOW),
    Metric("sampling.shadow_edges_per_s", "1/s", "higher", moves=_SHADOW),
    Metric("sampling.merged_ms", "ms", "lower", moves=_OPEN + "; " + _DRAINS),
    Metric("sampling.request_cost_probe_us", "us", "lower", moves=_DRAINS),
    # autograd
    Metric("autograd.gather_ms", "ms", "lower", moves=_SHADOW + "; " + _TRAIN_SAGE),
    Metric("autograd.dense_ms", "ms", "lower", moves=_SHADOW + "; " + _TRAIN_SAGE),
    Metric("autograd.gather_frac", "ratio", "lower", moves="attribution"),
    Metric("autograd.dense_frac", "ratio", "lower", moves="attribution"),
    Metric("autograd.matmul_gflops", "GFLOP/s", "higher", moves=_SHADOW + " (computed)"),
    Metric("autograd.gather_gbytes_per_s", "GB/s", "higher", moves=_SHADOW + " (computed)"),
    Metric("autograd.optim_step_ms", "ms", "lower", moves="op_p50_ms on train_*"),
    # gnn
    Metric("gnn.forward_ms", "ms", "lower", moves=_SHADOW + " >> " + _TRAIN_SAGE),
    Metric("gnn.backward_ms", "ms", "lower", moves=_SHADOW + " >> " + _TRAIN_SAGE),
    Metric("gnn.aggregate_mean_ms", "ms", "lower", moves=_SHADOW),
    Metric("gnn.aggregate_gbytes_per_s", "GB/s", "higher", moves=_SHADOW + " (computed)"),
    Metric("gnn.infer_forward_ms", "ms", "lower", moves=_OPEN + "; " + _DRAINS),
    # distributed
    Metric("distributed.allreduce_ms", "ms", "lower", moves=_PROC2),
    Metric("distributed.barrier_us", "us", "lower", moves=_PROC2),
    # exec
    Metric("exec.launch_ms", "ms", "lower", moves=_STAR2),
    Metric("exec.steady_launch_ms", "ms", "lower", moves=_PROC2),
    Metric("exec.pool_launches", "count", "lower", moves="must be 1"),
    Metric("exec.scaling_efficiency", "ratio", "higher", moves=_PROC2),
    Metric("exec.sample_wait_s", "s", "lower", moves="op_p50_ms on train_*"),
    Metric("exec.compute_s", "s", "lower", moves="op_p50_ms on train_*"),
    Metric("exec.sample_share", "ratio", "lower", moves="attribution: >=0.5 sage_inline1, <=0.1 shadow"),
    Metric("exec.infer_dispatch_ms", "ms", "lower", moves=_DRAINS),
    Metric("exec.rank_imbalance", "ratio", "lower", moves=_DRAINS),
    Metric("exec.rank_busy_frac", "ratio", "higher", moves=_DRAINS),
    # shm
    Metric("shm.param_publish_ms", "ms", "lower", moves=_PROC2),
    Metric("shm.arena_roundtrip_us", "us", "lower", moves=_DRAINS),
    Metric("shm.arena_hit_rate", "ratio", "higher", moves=_DRAINS),
    Metric("shm.pickle_fallbacks", "count", "lower", moves=_DRAINS),
    Metric("shm.delta_log_publish_ms", "ms", "lower", moves="serve.update_ms"),
    # pipeline
    Metric("pipeline.residual_wait_s", "s", "lower", moves="op_p50_ms on train_sage_prefetch1"),
    Metric("pipeline.overlap_frac", "ratio", "higher", moves="op_p50_ms on train_sage_prefetch1"),
    Metric("pipeline.prefetch_overhead_frac", "ratio", "lower", moves="op_p50_ms on train_sage_prefetch1"),
    # serve
    Metric("serve.cache_hit_rate", "ratio", "higher", moves=_OPEN + "; " + _DELTAS),
    Metric("serve.cache_invalidated", "count", "lower", moves=_DELTAS),
    Metric("serve.cache_evictions", "count", "lower", moves=_OPEN),
    Metric("serve.cache_get_us", "us", "lower", moves=_OPEN),
    Metric("serve.cache_put_us", "us", "lower", moves=_OPEN),
    Metric("serve.queue_wait_p50_ms", "ms", "lower", moves=_OPEN),
    Metric("serve.queue_wait_p99_ms", "ms", "lower", moves=_OPEN),
    Metric("serve.service_p50_ms", "ms", "lower", moves=_OPEN),
    Metric("serve.service_p99_ms", "ms", "lower", moves=_OPEN),
    Metric("serve.batch_size_mean", "count", "higher", moves=_OPEN),
    Metric("serve.full_flushes", "count", "higher", moves=_OPEN),
    Metric("serve.deadline_flushes", "count", "lower", moves=_OPEN),
    Metric("serve.utilisation", "ratio", "lower", moves="op_tail_ms before op_p50_ms on serve_open_zipf_inline"),
    Metric("serve.generator_lag_p99_ms", "ms", "lower", moves="validity of the open loop"),
    Metric("serve.phase_sample_frac", "ratio", "lower", moves="attribution"),
    Metric("serve.phase_merge_frac", "ratio", "lower", moves="attribution"),
    Metric("serve.phase_forward_frac", "ratio", "lower", moves="attribution"),
    Metric("serve.phase_cache_frac", "ratio", "lower", moves="attribution"),
    # obs: per-request self time of each span, from the Chrome trace
    Metric("obs.self_ms.sample", "ms", "lower", moves="where a sampling saving must appear"),
    Metric("obs.self_ms.merge", "ms", "lower", moves="where a merge saving must appear"),
    Metric("obs.self_ms.forward", "ms", "lower", moves="where a forward saving must appear"),
    Metric("obs.self_ms.cache", "ms", "lower", moves="where a cache saving must appear"),
    Metric("obs.self_ms.plan", "ms", "lower", moves=_DRAINS),
    Metric("obs.self_ms.barrier", "ms", "lower", moves=_DRAINS),
    Metric("obs.self_ms.publish", "ms", "lower", moves=_DRAINS),
    Metric("obs.self_ms.delta_sync", "ms", "lower", moves=_DELTAS),
    Metric("obs.dropped_spans", "count", "lower", moves="trace completeness"),
    Metric("obs.trace_overhead_frac", "ratio", "lower", moves="must stay < 0.03"),
    # bayesopt / tuning / core / platform
    Metric("bayesopt.gp_fit_ms", "ms", "lower", moves=_TUNE),
    Metric("bayesopt.ask_ms", "ms", "lower", moves=_TUNE),
    Metric("tuning.space_size", "count", "lower", moves="context"),
    Metric("tuning.searches", "count", "lower", moves="context"),
    Metric("core.tuned_over_optimal_max", "ratio", "lower", moves="core.tuned_over_optimal"),
    Metric("core.tuner_overhead_frac", "ratio", "lower", moves=_TUNE),
    Metric("core.surrogate_mb", "MB", "lower", moves="peak_rss_mb on autotune_sim"),
    Metric("platform.costmodel_eval_us", "us", "lower", moves="setup_s on autotune_sim"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")


def benchmark_json() -> dict:
    """The root ``BENCHMARK.json``, generated so it cannot drift."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
