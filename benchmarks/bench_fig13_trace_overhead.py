"""Fig 13 (observability) — span tracing is effectively free on the hot path.

The span recorder (:mod:`repro.obs.trace`) times every serving phase
with two ``perf_counter()`` reads and folds the duration into a
histogram whether tracing is on or off.  Tracing adds only the
shared-memory ring: four array stores and a cursor bump per span — no
allocation, no IPC, no locks — so it claims a strict overhead budget.

The bench drives the same overloaded drain workload as
``bench_fig10_frontier_batching`` (uniform traffic, cache off, arrivals
far faster than service: the drain makespan *is* the compute) with
tracing off and on, interleaved min-of-N so host noise cancels, and
gates the PR's claims:

* traced predictions are **bitwise identical** to untraced ones (the
  recorder never touches numerics);
* the traced drain makespan stays within **3%** of the untraced one;
* the run's exported Chrome trace document is well-formed and carries
  spans for every serving phase.
"""

import json

import numpy as np
import pytest

from repro.core.engine import MultiProcessEngine
from repro.experiments.reporting import render_table
from repro.gnn.models import make_task
from repro.graph.datasets import load_dataset
from repro.obs.export import chrome_trace_document, write_chrome_trace
from repro.serve import InferenceEngine, ModelSnapshot, run_serving_workload

ROUNDS = 8
NUM_REQUESTS = 256
OVERHEAD_BUDGET = 1.03


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


def bench_fig13_trace_overhead(benchmark, save_result, serving_setup, tmp_path):
    ds, snapshot = serving_setup

    def measure(tracing: bool):
        engine = InferenceEngine(
            snapshot, ds, mode="inline",
            cache_entries=0, tracing=tracing,
        )
        try:
            report = run_serving_workload(
                engine, num_requests=NUM_REQUESTS, rate_rps=1e7, zipf_alpha=0.0,
                max_batch=8, max_wait_ms=50.0, seed=0,
            )
            doc = None
            if tracing:
                doc = chrome_trace_document(
                    engine.trace_arena.drain(),
                    engine.trace_names,
                    rank_labels=engine.trace_rank_labels(),
                    dropped=engine.trace_arena.dropped(),
                )
            return report, doc
        finally:
            engine.close()

    def run():
        # one discarded warm-up per side (first-touch page faults, BLAS
        # thread spin-up, import tails), then interleaved off/on rounds
        # so drift (thermal, cache, competing load) hits both sides
        # equally; min-of-N is the noise floor
        measure(False)
        measure(True)
        off_s, on_s = [], []
        doc = None
        for _ in range(ROUNDS):
            off_s.append(measure(False)[0].service_s)
            report, doc = measure(True)
            on_s.append(report.service_s)
        return {"off_s": off_s, "on_s": on_s, "doc": doc}

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    best_off = min(data["off_s"])
    best_on = min(data["on_s"])
    ratio = best_on / max(best_off, 1e-12)
    doc = data["doc"]
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    span_names = {e["name"] for e in spans}

    save_result(
        "fig13_trace_overhead",
        render_table(
            ["metric", "untraced", "traced"],
            [
                ["drain makespan ms (min of %d)" % ROUNDS,
                 f"{best_off * 1e3:.1f}", f"{best_on * 1e3:.1f}"],
                ["us per request",
                 f"{best_off / NUM_REQUESTS * 1e6:.0f}",
                 f"{best_on / NUM_REQUESTS * 1e6:.0f}"],
                ["overhead", "-", f"{(ratio - 1.0) * 100:+.2f}%"],
                ["spans recorded", "-", str(len(spans))],
            ],
            title="Fig 13 — span-tracing overhead on the serving drain",
        ),
    )

    # ------------------------------------------------------------------
    # tracing never touches numerics: bitwise-identical predictions
    nodes = ds.val_idx[:32]
    with InferenceEngine(
        snapshot, ds, cache_entries=0, tracing=False
    ) as plain:
        expected = plain.predict(nodes)
    with InferenceEngine(
        snapshot, ds, cache_entries=0, tracing=True
    ) as traced:
        np.testing.assert_array_equal(traced.predict(nodes), expected)

    # the exported document is valid Chrome trace-event JSON with the
    # serving phases on it, and survives a JSON round trip on disk
    path = tmp_path / "fig13_trace.json"
    write_chrome_trace(str(path), doc)
    loaded = json.loads(path.read_text())
    assert loaded["otherData"]["span_count"] == len(spans)
    assert {"sample", "merge", "forward", "cache", "predict"} <= span_names
    assert all(e["dur"] >= 0.0 for e in spans)

    # the PR's headline gate: tracing costs < 3% of the drain makespan
    assert ratio < OVERHEAD_BUDGET, (
        f"tracing overhead {100 * (ratio - 1):.1f}% exceeds the "
        f"{100 * (OVERHEAD_BUDGET - 1):.0f}% budget "
        f"(off={best_off * 1e3:.1f}ms on={best_on * 1e3:.1f}ms)"
    )
