"""Figure 1 — state-of-the-art GNN libraries suffer from poor scalability.

Paper shape: DGL and PyG training a 3-layer GraphSAGE on ogbn-products
stops speeding up past 16 cores (normalised speedup saturates well below
2x even at 128 cores).

``bench_fig1_backend_sweep`` complements the simulated figure with
*measured* wall-clock epoch times of the real Multi-Process Engine under
every execution backend (inline / process) on a local synthetic
instance — the mechanism the simulated curves model.
``bench_fig1_overlap_sweep`` measures the engine's sampler threads
(``prefetch`` on, ``sampler_workers=s``) hiding sampling behind compute.
"""

from repro.experiments.figures import (
    fig1_baseline_scalability,
    fig1_engine_backend_sweep,
    fig1_overlap_sweep,
)
from repro.experiments.reporting import render_series, render_table
from repro.experiments.setups import ExperimentSetup, build_runtime


def bench_fig1(benchmark, save_result):
    data = benchmark.pedantic(
        lambda: fig1_baseline_scalability("ogbn-products", "icelake"),
        rounds=1,
        iterations=1,
    )
    text = render_series(
        data["cores"],
        data["speedup"],
        title="Fig 1 — baseline speedup vs cores (Neighbor-SAGE, ogbn-products, Ice Lake; normalised to 4 cores)",
    )
    save_result("fig01_baseline_scalability", text)

    # paper shape assertions: plateau past 16 cores for both libraries
    for lib, series in data["speedup"].items():
        idx16 = data["cores"].index(16)
        assert max(series[idx16:]) < 1.25 * series[idx16], lib
        assert series[idx16] > series[0], lib


def bench_fig1_backend_sweep(benchmark, save_result):
    """Real-engine wall clock per execution backend, same seed everywhere.

    ``launch s`` records each backend's worker-launch tax: zero for
    ``inline``, one pool fork for ``process`` (the persistent
    runtime is the engine default — later epochs would launch for free).
    """
    data = benchmark.pedantic(
        lambda: fig1_engine_backend_sweep(
            "ogbn-products", backends=("inline", "process"), epochs=1
        ),
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            b,
            f"{data['epoch_time'][b][0]:.3f}",
            f"{data['launch_time'][b][0]:.3f}",
            f"{data['losses'][b][0]:.5f}",
        ]
        for b in data["backends"]
    ]
    text = render_table(
        ["backend", "epoch time s", "launch s", "mean loss"],
        rows,
        title="Fig 1 (measured) — engine wall clock per execution backend",
    )
    save_result("fig01_backend_sweep", text)

    # every backend ran and implements the same algorithm, bit for bit
    ref = data["losses"]["inline"]
    for b in data["backends"]:
        assert data["epoch_time"][b][0] > 0, b
        assert data["losses"][b] == ref, b
    # only the process backend forks workers; inline has no launch stage
    assert data["launch_time"]["inline"][0] == 0.0
    assert data["launch_time"]["process"][0] > 0.0


def bench_fig1_overlap_sweep(benchmark, save_result):
    """Pipelined sampling: wait hidden by overlap.

    Measured: a one-rank inline engine's epoch sample wait (overlap
    regime) and the rank step prefetcher's makespan over the same epoch
    plan (drain regime) vs sampler threads ``s`` on a dense synthetic
    instance, against the synchronous baseline.  The drain makespan is
    recorded, not asserted: the sampler threads share one GIL.  Modelled: the cost model's per-iteration sample-stage time
    vs ``s`` (Amdahl in the sampling cores) — strictly decreasing by
    construction.
    """
    samplers = (1, 2, 4)
    data = benchmark.pedantic(
        lambda: fig1_overlap_sweep("reddit", samplers=samplers, scale_override=11),
        rounds=1,
        iterations=1,
    )
    rt, _ = build_runtime(
        ExperimentSetup("neighbor-sage", "ogbn-products", "icelake", "dgl")
    )
    modelled = {s: rt.breakdown((2, s, 8)).t_sample for s in (1, 2, 4, 8)}

    rows = [["off (sync)", f"{data['wait_off']:.3f}", f"{data['drain_off']:.3f}", "-"]]
    for s in samplers:
        rows.append(
            [
                f"s={s}",
                f"{data['wait'][s]:.3f}",
                f"{data['drain'][s]:.3f}",
                f"{modelled[s] * 1e3:.2f}",
            ]
        )
    text = render_table(
        ["samplers", "sample wait s", "drain makespan s", "modelled t_sample ms"],
        rows,
        title="Fig 1 (measured) — pipelined sampling overlap sweep (reddit 2^11)",
    )
    save_result("fig01_overlap_sweep", text)

    # semantics preservation: prefetched epochs' losses are bit-identical
    for s in samplers:
        assert data["losses"][s] == data["losses_off"], s
    # overlap hides sampling behind compute on any host
    for s in samplers:
        assert data["wait"][s] < data["wait_off"], s
    # the modelled sample stage strictly decreases with s — the
    # deterministic record of the strictly-decreasing claim
    vals = [modelled[s] for s in sorted(modelled)]
    assert all(a > b for a, b in zip(vals, vals[1:])), modelled
