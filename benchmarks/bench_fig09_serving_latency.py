"""Fig 9 (serving) — batching trades tail latency for throughput.

``bench_fig9_batching_sweep`` records a (max_batch, max_wait_ms) sweep
of the micro-batcher under one Zipf/Poisson workload over the online
inference runtime (``repro.serve``).  Under light load a longer
deadline *is* the latency (requests sit out their wait in deadline
flushes); under overload the queue fills batches and the deadline stops
mattering — the classic p99-vs-throughput trade-off surface.
"""

import numpy as np
import pytest

from repro.core.engine import MultiProcessEngine
from repro.experiments.reporting import render_table
from repro.gnn.models import make_task
from repro.graph.datasets import load_dataset
from repro.serve import InferenceEngine, ModelSnapshot, run_serving_workload


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
