"""Fig 11 (streaming) — serving a live graph: scoped invalidation vs
full flush under an interleaved Poisson update / Zipf read workload.

One recording, three claims:

* **equal correctness** — after the same update stream, a scoped-
  invalidation engine and a full-flush engine answer delta-touching
  queries bit-identically, and both match a cold engine rebuilt on the
  materialised merged graph (the exactness oracle);
* **scoped wins on hit rate** — a delta only invalidates its reverse-
  reachable set, so the Zipf-hot cache survives an update storm that a
  full flush would wipe on every delta;
* **freshness SLO** — the report accounts freshness (stale-budget
  serving) alongside the latency SLO, so "fast but stale" is visible.
"""

import numpy as np

from repro.experiments.reporting import render_table
from repro.graph.datasets import load_dataset
from repro.graph.delta import materialize_dataset
from repro.gnn.models import make_task
from repro.core.engine import MultiProcessEngine
from repro.serve import (
    InferenceEngine,
    ModelSnapshot,
    make_update_stream,
    run_serving_workload,
)
from repro.utils.rng import derive_rng

SLO_MS = 25.0


def bench_fig11_streaming_updates(benchmark, save_result):
    ds = load_dataset("ogbn-products", seed=0, scale_override=10)
    sampler, model = make_task("neighbor-sage", ds.layer_dims(2), seed=0, fanouts=[5, 5])
    trainer = MultiProcessEngine(
        ds, sampler, model, num_processes=1, global_batch_size=64,
        backend="inline", seed=0,
    )
    trainer.train(1)
    snapshot = ModelSnapshot.from_engine(trainer)

    def run_mode(delta_invalidation, staleness_budget=0):
        engine = InferenceEngine(
            snapshot, ds, mode="inline",
            cache_entries=4096, delta_invalidation=delta_invalidation,
            staleness_budget=staleness_budget,
        )
        updates = make_update_stream(
            ds.num_nodes, num_updates=8, rate_ups=400.0, edges_per_update=2,
            rng=derive_rng(0, "fig11-updates"),
        )
        report = run_serving_workload(
            engine, num_requests=320, rate_rps=1500.0, zipf_alpha=1.5,
            max_batch=8, max_wait_ms=2.0, seed=0, updates=updates,
        )
        # exactness oracle: the live engine, after all deltas, answers
        # like a cold engine on the materialised merged graph
        probe = np.unique(
            np.concatenate([f.rows[:8] for f in engine._fragments])
        ).astype(np.int64)
        live = engine.predict(probe)
        merged = materialize_dataset(ds, engine._fragments)
        with InferenceEngine(
            snapshot, merged, mode="inline",
            cache_entries=0,
        ) as cold:
            oracle = cold.predict(probe)
        engine.close()
        return report, live, oracle

    def run():
        out = {}
        out["scoped"] = run_mode("scoped")
        out["flush"] = run_mode("flush")
        out["scoped+budget1"] = run_mode("scoped", staleness_budget=1)
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for mode, (r, _, _) in data.items():
        rows.append([
            mode, r.updates_applied, f"{r.update_ms:.1f}",
            f"{r.cache.hit_rate:.3f}", r.invalidated, r.stale_served,
            f"{r.freshness:.3f}", f"{r.p99_ms:.2f}",
            f"{r.slo_attainment(SLO_MS):.3f}",
        ])
    save_result(
        "fig11_streaming_updates",
        render_table(
            ["invalidation", "deltas", "update ms", "cache hit", "dropped",
             "stale served", "freshness", "p99 ms", f"SLO<={SLO_MS:g}ms"],
            rows,
            title="Fig 11 (streaming) — live graph updates: scoped vs flush",
        ),
    )

    scoped, flush, budgeted = data["scoped"], data["flush"], data["scoped+budget1"]
    # equal correctness: both modes (and the budget run's post-stream
    # state) match the cold merged-graph oracle bit for bit
    for _, live, oracle in data.values():
        np.testing.assert_array_equal(live, oracle)
    np.testing.assert_array_equal(scoped[1], flush[1])
    # every delta landed in every run
    assert all(r.updates_applied == 8 for r, _, _ in data.values())
    assert all(r.graph_generation == 8 for r, _, _ in data.values())
    # scoped invalidation beats the full flush on cache hit rate
    assert scoped[0].cache.hit_rate > flush[0].cache.hit_rate
    # scoped drops strictly fewer entries than flush-everything
    assert scoped[0].invalidated < flush[0].invalidated
    # budget 0 never serves stale; budget 1 may, and accounts for it
    assert scoped[0].stale_served == 0 and scoped[0].freshness == 1.0
    assert budgeted[0].freshness <= 1.0
