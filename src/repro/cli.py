"""Command-line interface: regenerate paper experiments without pytest.

Usage::

    python -m repro.cli list
    python -m repro.cli fig1 [--dataset ogbn-products] [--platform icelake]
    python -m repro.cli fig6 | fig8 | table4 | table5 | table6
    python -m repro.cli landscape --task shadow-gcn --dataset reddit  # figure 7
    python -m repro.cli train --backend process --processes 2 --epochs 2
    python -m repro.cli train --backend process --prefetch --samplers 2
    python -m repro.cli train --backend process --no-persistent  # respawn/epoch
    python -m repro.cli serve-bench --mode inline --requests 256
    python -m repro.cli serve-bench --mode pool --serve-workers 2 --slo-ms 20
    python -m repro.cli serve-bench --max-batch 8 --queue-limit 64
    python -m repro.cli serve-bench --mode pool --swaps 2  # hot snapshot reloads
    python -m repro.cli serve-bench --deltas 8 --staleness-budget 1  # live graph
    python -m repro.cli serve-bench --report-json report.json
    python -m repro.cli serve-bench --trace trace.json --metrics-json metrics.json
    python -m repro.cli trace trace.json  # summarize an exported trace

Each command prints the reproduced artefact to stdout (the benchmark
suite additionally asserts the paper's shapes; the CLI is for quick
interactive inspection).  ``train`` runs the *real* Multi-Process Engine
on a local synthetic instance under any execution backend — it is also
the CI smoke test for the fork-sensitive ``process`` backend.
``serve-bench`` trains briefly, freezes a model snapshot and drives the
online inference runtime (micro-batching, prediction cache, inline or
persistent-pool execution) through a synthetic Zipf/Poisson workload,
reporting throughput, p50/p95/p99 latency and cache hit rate.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments.figures import (
    fig1_baseline_scalability,
    fig6_workload_bandwidth,
    fig7_landscape,
    fig8_argo_scalability,
)
from repro.experiments.reporting import render_heatmap, render_series, render_table
from repro.experiments.setups import DATASET_NAMES, ExperimentSetup
from repro.experiments.tables import table4_5_row, table6_search_budgets
from repro.exec import available_backends
from repro.tuning.defaults import DEFAULT_QUEUE_DEPTH

__all__ = ["main"]


def _positive_int(value: str) -> int:
    """argparse type for count arguments: fail in the parser, not the engine."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


def _nonnegative_int(value: str) -> int:
    """argparse type for budgets where 0 means "disabled" (e.g. cache size)."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {n}")
    return n


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="ogbn-products", choices=DATASET_NAMES)
    p.add_argument("--platform", default="icelake", choices=["icelake", "sapphire"])
    p.add_argument("--library", default="dgl", choices=["dgl", "pyg"])
    p.add_argument("--task", default="neighbor-sage", choices=["neighbor-sage", "shadow-gcn"])


def cmd_fig1(args) -> str:
    data = fig1_baseline_scalability(args.dataset, args.platform)
    return render_series(data["cores"], data["speedup"], title="Fig 1 — baseline scalability")


def cmd_fig6(args) -> str:
    rows = fig6_workload_bandwidth(args.dataset, args.platform)
    return render_table(
        ["processes", "epoch edges", "bandwidth GB/s", "epoch time s"],
        [[r["processes"], r["epoch_edges"], r["bandwidth_gbs"], r["epoch_time"]] for r in rows],
        title="Fig 6 — workload & bandwidth vs processes",
    )


def cmd_fig8(args) -> str:
    data = fig8_argo_scalability(args.dataset, args.platform)
    return render_series(
        data["cores"], data["series"], title=f"Fig 8 — ARGO scalability on {args.platform}"
    )


def cmd_landscape(args) -> str:
    res = fig7_landscape(ExperimentSetup(args.task, args.dataset, args.platform, args.library))
    return render_heatmap(
        res["grid"], title=f"Fig 7 — {res['setup']} (opt={res['best']})"
    )


def _table_rows(library: str) -> str:
    rows = [
        table4_5_row(ExperimentSetup(task, ds, plat, library))
        for plat in ("icelake", "sapphire")
        for task in ("neighbor-sage", "shadow-gcn")
        for ds in DATASET_NAMES
    ]
    return render_table(
        ["setup", "Exhaustive", "Default", "(x)", "SimAnneal", "(x)", "AutoTuner", "(x)"],
        [
            [
                r["setup"],
                r["exhaustive"],
                r["default"],
                r["default_ratio"],
                r["sim_anneal_mean"],
                r["sim_anneal_ratio"],
                r["auto_tuner"],
                r["auto_tuner_ratio"],
            ]
            for r in rows
        ],
        title=f"Table {'IV' if library == 'dgl' else 'V'} — configuration quality ({library.upper()})",
    )


def cmd_table4(args) -> str:
    return _table_rows("dgl")


def cmd_table5(args) -> str:
    return _table_rows("pyg")


def cmd_table6(args) -> str:
    rows = table6_search_budgets()
    return render_table(
        ["platform", "task", "space", "paper space", "budget", "paper budget"],
        [
            [r["platform"], r["task"], r["space_size"], r["paper_space_size"], r["budget"], r["paper_budget"]]
            for r in rows
        ],
        title="Table VI — search budgets",
    )


def cmd_train(args) -> str:
    """Train the real engine under any execution backend and report."""
    from repro.core.engine import MultiProcessEngine
    from repro.gnn.models import make_task
    from repro.graph.datasets import load_dataset

    ds = load_dataset(args.dataset, seed=args.seed, scale_override=args.scale)
    sampler, model = make_task(args.task, ds.layer_dims(args.layers), seed=args.seed)
    backend_options = {"timeout": args.timeout} if args.backend == "process" else None
    persistent = True if args.persistent is None else args.persistent
    engine = MultiProcessEngine(
        ds,
        sampler,
        model,
        num_processes=args.processes,
        global_batch_size=args.batch,
        backend=args.backend,
        backend_options=backend_options,
        seed=args.seed,
        prefetch=args.prefetch,
        queue_depth=args.queue_depth,
        sampler_workers=args.samplers,
        persistent=persistent,
    )
    try:
        engine.train(args.epochs)
        acc = engine.evaluate()
    finally:
        engine.shutdown()
    show_pool = args.backend == "process" and persistent
    rows = [
        [
            e.epoch,
            f"{e.mean_loss:.4f}",
            f"{e.epoch_time:.3f}",
            f"{e.launch_time:.3f}",
            f"{e.sample_wait:.3f}",
            f"{e.compute_time:.3f}",
            e.sampled_edges,
        ]
        + ([e.pool_launches, e.pool_parked] if show_pool else [])
        for e in engine.history.epochs
    ]
    overlap = f", prefetch(s={args.samplers}, q={args.queue_depth})" if args.prefetch else ""
    mode = "" if args.backend != "process" else (
        ", persistent" if persistent else ", respawn"
    )
    headers = ["epoch", "mean loss", "time s", "launch s", "sample wait s", "compute s", "edges"]
    if show_pool:
        # persistent-pool lifecycle diagnostics (ROADMAP PR 3 follow-up):
        # cumulative worker forks and workers parked idle after a shrink
        headers += ["launches", "parked"]
    table = render_table(
        headers,
        rows,
        title=(
            f"train — {args.task} on {args.dataset} (scale 2^{args.scale}), "
            f"backend={args.backend}{mode}, n={args.processes}{overlap}"
        ),
    )
    return f"{table}\nfinal validation accuracy: {acc:.3f}"


def cmd_serve_bench(args) -> str:
    """Train briefly, snapshot, and bench the online inference runtime."""
    from repro.core.engine import MultiProcessEngine
    from repro.gnn.models import make_task
    from repro.graph.datasets import load_dataset
    from repro.serve import InferenceEngine, ModelSnapshot, run_serving_workload
    from repro.serve.workload import make_update_stream, merge_reports, slo_objective
    from repro.utils.rng import derive_rng

    ds = load_dataset(args.dataset, seed=args.seed, scale_override=args.scale)
    sampler, model = make_task(args.task, ds.layer_dims(args.layers), seed=args.seed)
    trainer = MultiProcessEngine(
        ds, sampler, model, num_processes=1, global_batch_size=args.batch,
        backend="inline", seed=args.seed,
    )
    trainer.train(args.train_epochs)
    snapshot = ModelSnapshot.from_engine(trainer)
    engine = InferenceEngine(
        snapshot,
        ds,
        mode=args.mode,
        workers=args.serve_workers,
        cache_entries=args.cache_entries,
        timeout=args.timeout,
        staleness_budget=args.staleness_budget,
        delta_invalidation=args.delta_invalidation,
        tracing=args.trace is not None,
    )
    # --deltas N streams N Poisson-timed topology updates into the live
    # engine during the first segment: edges append through apply_delta
    # while the very same pool keeps serving (launches must stay flat).
    updates = None
    if args.deltas:
        updates = make_update_stream(
            ds.num_nodes,
            num_updates=args.deltas,
            rate_ups=args.delta_rate,
            edges_per_update=args.delta_edges,
            rng=derive_rng(args.seed, "serve-deltas"),
        )
    swap_lines = []
    delta_line = None
    try:
        engine.warm_up()  # pool fork paid before the clock starts
        # --swaps N splits the run into N+1 segments with a hot snapshot
        # reload between them: the live pool keeps its workers (launches
        # must stay flat) while weights travel the ParamStore channel.
        # A segment needs at least one request, so very small runs cap
        # the swap count rather than serving more than --requests.
        segments = min(args.swaps + 1, args.requests)
        seg_requests = [args.requests // segments] * segments
        seg_requests[-1] += args.requests - sum(seg_requests)
        reports = []
        for seg, n_req in enumerate(seg_requests):
            if seg > 0:
                engine.reload(snapshot)
                swap_lines.append(
                    f"swap {seg}: generation={engine.generation}, "
                    f"launches={engine.pool.launches if engine.pool else '(inline)'}"
                )
            reports.append(
                run_serving_workload(
                    engine,
                    num_requests=n_req,
                    rate_rps=args.rate,
                    zipf_alpha=args.zipf,
                    max_batch=args.max_batch,
                    max_wait_ms=args.max_wait_ms,
                    closed_loop=args.closed,
                    concurrency=args.concurrency,
                    queue_limit=args.queue_limit,
                    updates=updates if seg == 0 else None,
                    seed=args.seed + seg,
                )
            )
        report = merge_reports(reports)
        pool = engine.pool
        if args.deltas:
            delta_line = (
                f"deltas: applied={report.updates_applied}/{args.deltas}, "
                f"generation={report.graph_generation}, "
                f"invalidation={args.delta_invalidation} "
                f"(dropped={report.invalidated}, stale served={report.stale_served}, "
                f"freshness={report.freshness:.3f}), "
                f"update cost={report.update_ms:.1f}ms, "
                f"launches={pool.launches if pool is not None else '(inline)'}"
            )
        pool_line = (
            f"pool: workers={engine.n}, launches={pool.launches}; "
            f"arena: slot hits={report.transport.arena_hits}, "
            f"pickle fallbacks={report.transport.pickle_fallbacks}"
            if pool is not None
            else "pool: (inline mode)"
        )
        # greppable one-liner (CI asserts on it): the max/mean imbalance
        # ratio and per-rank CPU busy
        balance_line = "balance: imbalance={:.3f}, busy_ms=[{}]".format(
            report.imbalance, ", ".join(f"{b:.1f}" for b in report.rank_busy_ms)
        )
        # the trace arena dies with the engine: drain the spans into an
        # exportable document *before* close() unlinks the segments
        trace_doc = None
        if args.trace is not None:
            from repro.obs.export import chrome_trace_document

            trace_doc = chrome_trace_document(
                engine.trace_arena.drain(),
                engine.trace_names,
                rank_labels=engine.trace_rank_labels(),
                dropped=engine.trace_arena.dropped(),
            )
        metrics = engine.metrics
    finally:
        engine.close()
    loop = f"closed(c={args.concurrency})" if args.closed else f"open({args.rate:g} rps)"
    rows = [
        ["requests", report.requests],
        ["throughput req/s", f"{report.throughput_rps:.1f}"],
        ["latency p50 ms", f"{report.p50_ms:.2f}"],
        ["latency p95 ms", f"{report.p95_ms:.2f}"],
        ["latency p99 ms", f"{report.p99_ms:.2f}"],
        ["latency mean ms", f"{report.mean_ms:.2f}"],
        ["mean batch", f"{report.mean_batch:.2f}"],
        ["flushes full/deadline/drain",
         f"{report.full_flushes}/{report.deadline_flushes}/{report.drain_flushes}"],
        ["cache hit rate", f"{report.cache.hit_rate:.3f}"],
        ["cache hits/misses/evictions",
         f"{report.cache.hits}/{report.cache.misses}/{report.cache.evictions}"],
        ["service sample/merge/forward/cache ms",
         f"{report.sample_ms:.1f}/{report.merge_ms:.1f}"
         f"/{report.forward_ms:.1f}/{report.cache_ms:.1f}"],
        ["sampling share", f"{report.sampling_share:.3f}"],
        ["transport arena/pickle",
         f"{report.transport.arena_hits}/{report.transport.pickle_fallbacks} "
         f"(hit rate {report.transport.hit_rate:.3f})"],
        ["rank busy ms",
         "/".join(f"{b:.1f}" for b in report.rank_busy_ms) or "-"],
        ["busy imbalance (max/mean)", f"{report.imbalance:.3f}"],
    ]
    if args.queue_limit is not None:
        rows.append(["shed (queue limit)", f"{report.shed_count} (max queue {report.max_queue})"])
    table = render_table(
        ["metric", "value"],
        rows,
        title=(
            f"serve-bench — {args.task} on {args.dataset} (scale 2^{args.scale}), "
            f"mode={args.mode}, {loop}, "
            f"zipf(s={args.zipf:g}), "
            f"batch<={args.max_batch}, wait<={args.max_wait_ms:g}ms, "
            f"cache={args.cache_entries}"
        ),
    )
    lines = [table, pool_line, balance_line, *swap_lines]
    if delta_line is not None:
        lines.append(delta_line)
    if args.slo_ms is not None:
        lines.append(
            f"SLO {args.slo_ms:g} ms: p99 "
            f"{'MET' if report.p99_ms <= args.slo_ms else 'MISSED'} "
            f"(attainment {report.slo_attainment(args.slo_ms):.3f}, "
            f"objective {slo_objective(report, slo_ms=args.slo_ms):.6f})"
        )
    if args.report_json is not None:
        doc = report.as_dict(slo_ms=args.slo_ms)
        doc["bench"] = {
            "dataset": args.dataset,
            "task": args.task,
            "scale": args.scale,
            "mode": args.mode,
            "workers": args.serve_workers if args.mode == "pool" else 1,
            "deltas": args.deltas,
            "delta_invalidation": args.delta_invalidation,
            "staleness_budget": args.staleness_budget,
            "swaps": args.swaps,
            "seed": args.seed,
        }
        with open(args.report_json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        lines.append(f"report-json: wrote {args.report_json}")
    if trace_doc is not None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(args.trace, trace_doc)
        other = trace_doc["otherData"]
        lines.append(
            f"trace: wrote {args.trace} ({other['span_count']} spans, "
            f"{sum(other['dropped_spans'])} dropped) — load in Perfetto or "
            f"run `repro trace {args.trace}`"
        )
    if args.metrics_json is not None:
        from repro.obs.export import write_metrics_json

        doc = report.as_dict(slo_ms=args.slo_ms)
        write_metrics_json(
            args.metrics_json, metrics, extra={"transport": doc["transport"], "report": doc}
        )
        lines.append(f"metrics-json: wrote {args.metrics_json}")
    return "\n".join(lines)


def cmd_trace(args) -> str:
    """Summarize an exported Chrome-trace JSON file in the terminal."""
    from repro.obs.export import summarize_trace

    with open(args.file) as fh:
        doc = json.load(fh)
    return summarize_trace(doc, width=args.width, top=args.top)


COMMANDS = {
    "fig1": cmd_fig1,
    "fig6": cmd_fig6,
    "fig8": cmd_fig8,
    "landscape": cmd_landscape,
    "table4": cmd_table4,
    "table5": cmd_table5,
    "table6": cmd_table6,
    "train": cmd_train,
    "serve-bench": cmd_serve_bench,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available experiment commands")
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "trace":
            # operates on an exported file, not an experiment setup: no
            # dataset/platform/task arguments
            p.add_argument("file", help="Chrome-trace JSON from serve-bench --trace")
            p.add_argument(
                "--width", type=_positive_int, default=78,
                help="terminal width for the per-rank gantt",
            )
            p.add_argument(
                "--top", type=_positive_int, default=10,
                help="rows in the spans-by-self-time table",
            )
            continue
        _add_common(p)
        if name == "train":
            p.add_argument(
                "--backend", default="inline", type=str.lower, choices=available_backends()
            )
            p.add_argument("--processes", type=_positive_int, default=2)
            p.add_argument("--epochs", type=_positive_int, default=1)
            p.add_argument("--batch", type=_positive_int, default=128)
            p.add_argument("--scale", type=_positive_int, default=10)
            p.add_argument("--layers", type=_positive_int, default=2)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument(
                "--timeout", type=float, default=120.0,
                help="per-epoch worker deadline for the process backend (s)",
            )
            p.add_argument(
                "--prefetch", action="store_true",
                help="overlap sampling with compute (repro.pipeline)",
            )
            p.add_argument(
                "--samplers", type=_positive_int, default=1,
                help="sampler workers per rank when --prefetch is on",
            )
            p.add_argument(
                "--queue-depth", type=_positive_int, default=DEFAULT_QUEUE_DEPTH,
                help="batches sampled ahead of compute per rank",
            )
            p.add_argument(
                "--persistent", action=argparse.BooleanOptionalAction, default=None,
                help="process backend: keep rank workers alive across epochs "
                     "(default) or respawn them per epoch (--no-persistent)",
            )
        if name == "serve-bench":
            p.add_argument("--scale", type=_positive_int, default=10)
            p.add_argument("--layers", type=_positive_int, default=2)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--batch", type=_positive_int, default=128)
            p.add_argument(
                "--train-epochs", type=_positive_int, default=1,
                help="quick inline training pass before the snapshot is frozen",
            )
            p.add_argument(
                "--mode", default="inline", choices=["inline", "pool"],
                help="inference execution: in-process or persistent worker pool",
            )
            p.add_argument(
                "--queue-limit", type=_positive_int, default=None,
                help="admission control: bound the pending queue, shedding the "
                     "oldest request on overflow (default: unbounded)",
            )
            p.add_argument(
                "--swaps", type=_nonnegative_int, default=0,
                help="hot snapshot reloads mid-run (live pool keeps its "
                     "workers; weights travel the ParamStore channel)",
            )
            p.add_argument(
                "--serve-workers", type=_positive_int, default=2,
                help="pool mode: rank workers sharing each micro-batch",
            )
            p.add_argument(
                "--max-batch", type=_positive_int, default=8,
                help="micro-batcher: flush when this many requests coalesce",
            )
            p.add_argument(
                "--max-wait-ms", type=float, default=2.0,
                help="micro-batcher: flush when the oldest request waited this long",
            )
            p.add_argument(
                "--cache-entries", type=_nonnegative_int, default=4096,
                help="LRU prediction-cache budget (0 disables the cache)",
            )
            p.add_argument("--requests", type=_positive_int, default=256)
            p.add_argument(
                "--rate", type=float, default=500.0,
                help="open-loop Poisson arrival rate (requests/s)",
            )
            p.add_argument(
                "--zipf", type=float, default=1.1,
                help="node-popularity skew (0 = uniform traffic)",
            )
            p.add_argument(
                "--closed", action="store_true",
                help="closed-loop traffic (fixed concurrency) instead of open-loop",
            )
            p.add_argument(
                "--concurrency", type=_positive_int, default=8,
                help="closed-loop client count",
            )
            p.add_argument(
                "--slo-ms", type=float, default=None,
                help="report p99 SLO attainment and the SLO objective",
            )
            p.add_argument(
                "--timeout", type=float, default=120.0,
                help="pool mode: per-batch worker deadline (s)",
            )
            p.add_argument(
                "--deltas", type=_nonnegative_int, default=0,
                help="stream this many graph deltas into the live engine "
                     "during the run (0 = frozen graph)",
            )
            p.add_argument(
                "--delta-rate", type=float, default=50.0,
                help="Poisson rate of the update stream (updates/s)",
            )
            p.add_argument(
                "--delta-edges", type=_positive_int, default=8,
                help="edges appended per graph delta",
            )
            p.add_argument(
                "--staleness-budget", type=_nonnegative_int, default=0,
                help="serve cache entries through this many affecting "
                     "deltas before evicting (0 = always fresh)",
            )
            p.add_argument(
                "--delta-invalidation", default="scoped",
                choices=["scoped", "flush"],
                help="on apply_delta: evict only the reverse-reachable "
                     "set (scoped) or the whole cache (flush)",
            )
            p.add_argument(
                "--report-json", default=None, metavar="PATH",
                help="also write the full ServingReport as one JSON document",
            )
            p.add_argument(
                "--trace", default=None, metavar="PATH",
                help="enable shared-memory span tracing and write the run's "
                     "spans as Chrome trace-event JSON (Perfetto-loadable; "
                     "summarize with `repro trace PATH`)",
            )
            p.add_argument(
                "--metrics-json", default=None, metavar="PATH",
                help="write the engine's metrics registry (phase histograms, "
                     "batcher counters, transport) as one JSON document",
            )
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available commands:", ", ".join(["list", *COMMANDS]))
        return 0
    # --persistent/--no-persistent only means something on the process
    # backend; fail here, before the command builds its dataset, rather
    # than silently ignoring the flag
    if args.command == "train" and args.persistent is not None and args.backend != "process":
        raise SystemExit(
            f"error: --{'persistent' if args.persistent else 'no-persistent'} "
            f"applies to the process backend only (got --backend {args.backend})"
        )
    print(COMMANDS[args.command](args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
