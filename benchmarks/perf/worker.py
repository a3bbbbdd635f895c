"""Run one pass of one workload; started by ``run.py`` in a fresh process.

Prints progress on stderr and one JSON document as the last line of
stdout: ``{"metrics": {...}, "attempted": n, "failed": n, "detail": {...}}``.
``peak_rss_mb`` is not in it: the parent reads it from the kernel once
this process tree has ended.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads
from spec import PER_LAYER_NAMES
from stats import median, percentile

pc = time.perf_counter


def log(message: str) -> None:
    print(f"[worker] {message}", file=sys.stderr, flush=True)


def host_libraries() -> dict:
    """The numeric stack this process actually loaded, for the fingerprint."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
    }


def cold_setups(wl):
    """Set up at least three times from cold; returns (seconds each, last context).

    Cheap set-ups are repeated until a second of them has been timed, so
    that a 20 ms set-up is not reported from three samples.
    """
    times, ctx = [], None
    while True:
        if ctx is not None:
            wl.teardown(ctx)
        start = pc()
        ctx = wl.setup()
        times.append(pc() - start)
        if len(times) >= 3 and (sum(times) >= 1.0 or len(times) >= 15):
            return times, ctx


def run_untraced(wl, seconds: float) -> dict:
    setups, ctx = cold_setups(wl)
    log(f"set-ups {['%.3f' % s for s in setups]}")
    try:
        m = wl.measure(ctx, seconds, wl.spec.min_ops)
        log(f"measured {len(m.samples_ms)} x {wl.spec.op} in {m.wall_s:.2f}s")
        checks, bad = wl.check(ctx)
    finally:
        wl.teardown(ctx)
    for message in bad:
        log(f"CHECK FAILED: {message}")
    metrics = {
        "setup_s": median(setups),
        "op_p50_ms": median(m.samples_ms),
        "op_tail_ms": percentile(m.samples_ms, wl.spec.tail_pct),
        "items_per_s": m.items / m.wall_s,
    }
    detail = dict(m.detail, **m.layer, ops=len(m.samples_ms), tail_pct=wl.spec.tail_pct,
                  items=m.items, wall_s=m.wall_s, setups_s=setups, failed_checks=bad)
    return {
        "metrics": metrics,
        "attempted": m.attempted + checks,
        "failed": m.failed + len(bad),
        "detail": detail,
    }


def run_traced(wl, seconds: float) -> dict:
    ctx = wl.setup(tracing=True)
    try:
        measured = wl.layers(ctx, seconds)
    finally:
        wl.teardown(ctx)
    unknown = sorted(set(measured) - set(PER_LAYER_NAMES))
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {unknown}")
    # a layer this workload leaves idle reads 0
    metrics = {name: float(measured.get(name, 0.0)) for name in PER_LAYER_NAMES}
    return {"metrics": metrics, "attempted": 1, "failed": 0, "detail": {"measured": sorted(measured)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = workloads.build(args.workload)
    start = pc()
    wl.prepare(args.seed, args.seconds)
    log(f"{wl.name}: inputs ready in {pc() - start:.2f}s")
    result = run_traced(wl, args.seconds) if args.trace else run_untraced(wl, args.seconds)
    result["detail"]["worker_wall_s"] = pc() - start
    result["detail"]["host"] = host_libraries()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
