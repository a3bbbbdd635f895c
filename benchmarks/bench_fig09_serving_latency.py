"""Fig 9 (serving) — batching trades tail latency for throughput; the
BO autotuner searches the serving knobs against a latency SLO.

Two recordings over the online inference runtime (``repro.serve``):

``bench_fig9_batching_sweep``
    A (max_batch, max_wait_ms) sweep of the micro-batcher under one
    Zipf/Poisson workload.  Under light load a longer deadline *is* the
    latency (requests sit out their wait in deadline flushes); under
    overload the queue fills batches and the deadline stops mattering —
    the classic p99-vs-throughput trade-off surface.

``bench_fig9_serving_autotune``
    The existing :class:`~repro.core.autotuner.OnlineAutoTuner` driving
    a :class:`~repro.tuning.serving.ServingSpace` — ``(workers,
    max_batch, max_wait_ms, cache_entries)`` —
    against the real inference engine with the SLO-aware objective.
    Pool-mode trials share one persistent
    :class:`~repro.exec.pool.WorkerPool`: a trial that shrinks
    ``workers`` parks the surplus worker instead of re-forking, so the
    whole search pays at most two launches.
"""

import numpy as np
import pytest

from repro.core.autotuner import OnlineAutoTuner
from repro.core.engine import MultiProcessEngine
from repro.experiments.reporting import render_table
from repro.exec.pool import WorkerPool
from repro.gnn.models import make_task
from repro.graph.datasets import load_dataset
from repro.graph.shm import SharedGraphStore
from repro.serve import InferenceEngine, ModelSnapshot, run_serving_workload
from repro.tuning.serving import ServingSpace, slo_objective


@pytest.fixture(scope="module")
def serving_setup():
    ds = load_dataset("ogbn-products", seed=0, scale_override=9)
    sampler, model = make_task("neighbor-sage", ds.layer_dims(2), seed=0, fanouts=[5, 5])
    trainer = MultiProcessEngine(
        ds, sampler, model, num_processes=1, global_batch_size=64,
        backend="inline", seed=0,
    )
    trainer.train(1)
    return ds, ModelSnapshot.from_engine(trainer)


def bench_fig9_batching_sweep(benchmark, save_result, serving_setup):
    ds, snapshot = serving_setup

    def measure(max_batch, max_wait_ms, rate):
        engine = InferenceEngine(snapshot, ds, mode="inline", cache_entries=2048)
        return run_serving_workload(
            engine, num_requests=160, rate_rps=rate, zipf_alpha=1.2,
            max_batch=max_batch, max_wait_ms=max_wait_ms, seed=0,
        )

    def run():
        grid = [(1, 0.0), (4, 2.0), (8, 2.0), (8, 20.0), (16, 20.0)]
        out = {}
        for load, rate in (("light", 150.0), ("overload", 20000.0)):
            out[load] = {cfg: measure(*cfg, rate) for cfg in grid}
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for load, reports in data.items():
        for (mb, mw), r in reports.items():
            rows.append(
                [load, mb, f"{mw:g}", f"{r.throughput_rps:.0f}",
                 f"{r.p50_ms:.2f}", f"{r.p99_ms:.2f}", f"{r.mean_batch:.2f}",
                 f"{r.cache.hit_rate:.2f}"]
            )
    save_result(
        "fig09_serving_latency_sweep",
        render_table(
            ["load", "max_batch", "max_wait ms", "req/s", "p50 ms", "p99 ms",
             "mean batch", "cache hit"],
            rows,
            title="Fig 9 (serving) — batching sweep: p99 latency vs throughput",
        ),
    )

    for reports in data.values():
        for r in reports.values():
            assert np.isfinite(r.p99_ms) and r.p50_ms <= r.p99_ms
            assert r.requests == 160
    light = data["light"]
    # no batching: every request served alone
    assert light[(1, 0.0)].mean_batch == 1.0
    # under light load the deadline IS the tail: a 20 ms wait floor
    # dominates the sub-ms service time
    assert light[(8, 20.0)].p99_ms > light[(1, 0.0)].p99_ms
    assert light[(8, 20.0)].p99_ms >= 20.0 * 0.9
    # under overload the queue fills real batches...
    over = data["overload"]
    assert over[(16, 20.0)].mean_batch > 2.0
    # ...and Zipf-hot repeats hit the cache
    assert over[(16, 20.0)].cache.hit_rate > 0.3


def bench_fig9_serving_autotune(benchmark, save_result, serving_setup):
    ds, snapshot = serving_setup

    def run():
        import multiprocessing as mp

        space = ServingSpace(
            workers=(1, 2), max_batches=(1, 8), max_waits_ms=(0.5, 8.0),
            cache_sizes=(0, 2048),
        )
        pool = WorkerPool(mp.get_context(), timeout=60.0)
        model = snapshot.build_model()
        store = SharedGraphStore.from_dataset(ds)

        def objective(cfg):
            workers, max_batch, max_wait_ms, cache_entries = cfg
            engine = InferenceEngine(
                snapshot, ds, mode="pool",
                workers=int(workers), cache_entries=int(cache_entries),
                pool=pool, model=model, store=store,
            )
            engine.warm_up()
            report = run_serving_workload(
                engine, num_requests=64, rate_rps=20000.0, zipf_alpha=1.2,
                max_batch=int(max_batch), max_wait_ms=float(max_wait_ms), seed=0,
            )
            engine.close()
            return slo_objective(report, slo_ms=25.0)

        tuner = OnlineAutoTuner(space, num_searches=len(space), seed=0)
        try:
            result = tuner.tune(objective)
        finally:
            pool.shutdown()
            if not store.closed:
                store.unlink()
        return space, result, pool.launches

    space, result, launches = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [i, str(cfg), f"{score:.5f}"]
        for i, (cfg, score) in enumerate(result.history)
    ]
    rows.append(["best", str(result.best_config), f"{result.best_observed:.5f}"])
    save_result(
        "fig09_serving_autotune",
        render_table(
            ["trial", "(workers, batch, wait ms, cache)", "SLO objective"],
            rows,
            title="Fig 9 (serving) — BO autotune over the ServingSpace",
        ),
    )

    assert result.best_config in space
    assert len(result.history) == len(space)
    assert result.best_observed == pytest.approx(
        min(score for _, score in result.history)
    )
    # the search's worker flips were served by park/rebind, not re-forks:
    # at most one launch per distinct ascent past the forked count
    assert launches <= 2
