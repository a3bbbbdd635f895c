"""A/B gate over two ledgers: ``python3 benchmarks/perf/compare.py A.json B.json``.

One row per workload x end-to-end metric with both medians, the ratio
B/A (base A), the metric's bound and a verdict:

``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``same``        neither: the two agree within the bound.  A gain smaller
                than the bound is not this tool's to claim; that takes
                alternating pairs of runs (choosing-metrics, section 8)
``unresolved``  the files' own run-to-run spread exceeds the bound, so
                the bound cannot be checked; rerun with more ``--repeats``

Per-layer rows (the ``--trace`` sections) follow, as ratios only.  Exits
non-zero on any ``worse`` or on a higher ``failed_frac``.  Ratios only,
never absolutes: two ledgers from different hosts are not comparable.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import spec  # noqa: E402
from stats import iqr_share, median  # noqa: E402


def run_values(entry: dict, metric: str) -> list:
    return [r["metrics"][metric] for r in entry.get("runs", ()) if metric in r["metrics"]]


def spread(values) -> float | None:
    """Run-to-run spread as a share of the median; None from a single run."""
    if len(values) < 2:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median(values))
    return iqr_share(values)


def classify(a_values, b_values, better: str, bound: float) -> dict:
    """Verdict for one metric on one workload, from each side's run values."""
    a, b = median(a_values), median(b_values)
    # relative worsening of B against base A, positive = worse
    worsening = (b / a - 1.0) if better == "lower" else (a / b - 1.0)
    spreads = [s for s in (spread(a_values), spread(b_values)) if s is not None]
    noise = max(spreads) if spreads else None
    if noise is not None and noise > bound:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    elif -worsening > bound:
        verdict = "better"
    else:
        verdict = "same"
    return {"a": a, "b": b, "ratio": b / a, "worsening": worsening, "spread": noise, "verdict": verdict}


def compare(doc_a: dict, doc_b: dict) -> tuple[list, list, list]:
    """(end-to-end rows, per-layer rows, failures) for two ledger documents."""
    rows, layer_rows, failures = [], [], []
    for name in spec.WORKLOAD_NAMES:
        ea, eb = doc_a["workloads"].get(name), doc_b["workloads"].get(name)
        if ea is None or eb is None:
            continue
        if eb["failed_frac"] > ea["failed_frac"]:
            failures.append(f"{name}: failed_frac {ea['failed_frac']:.4g} -> {eb['failed_frac']:.4g}")
        for metric in spec.END_TO_END:
            va, vb = run_values(ea, metric.name), run_values(eb, metric.name)
            if not va or not vb:
                failures.append(f"{name}: {metric.name} missing")
                continue
            row = classify(va, vb, metric.better, metric.bound)
            rows.append({"workload": name, "metric": metric.name, "bound": metric.bound, **row})
            if row["verdict"] == "worse":
                failures.append(f"{name}: {metric.name} worse by {row['worsening']:.1%} (bound {metric.bound:.0%})")
        ta, tb = ea.get("trace", {}).get("metrics", {}), eb.get("trace", {}).get("metrics", {})
        for metric in spec.PER_LAYER:
            a, b = ta.get(metric.name, 0.0), tb.get(metric.name, 0.0)
            if a or b:
                layer_rows.append({"workload": name, "metric": metric.name, "a": a, "b": b,
                                   "ratio": b / a if a else float("inf")})
    return rows, layer_rows, failures


def render(rows, layer_rows, failures, label_a: str, label_b: str) -> str:
    out = [f"A = {label_a}", f"B = {label_b}", "ratio = B/A (base A); spread = the files' own run-to-run spread", ""]
    out.append(f"{'workload':28s} {'metric':12s} {'A':>12s} {'B':>12s} {'B/A':>8s} {'spread':>8s} {'bound':>6s}  verdict")
    for r in rows:
        noise = "n/a" if r["spread"] is None else f"{r['spread']:.3f}"
        out.append(
            f"{r['workload']:28s} {r['metric']:12s} {r['a']:12.5g} {r['b']:12.5g} "
            f"{r['ratio']:8.3f} {noise:>8s} {r['bound']:6.2f}  {r['verdict']}"
        )
    if layer_rows:
        out += ["", f"{'workload':28s} {'per-layer metric':34s} {'A':>12s} {'B':>12s} {'B/A':>8s}"]
        for r in layer_rows:
            out.append(f"{r['workload']:28s} {r['metric']:34s} {r['a']:12.5g} {r['b']:12.5g} {r['ratio']:8.3f}")
    out.append("")
    out += [f"FAIL {f}" for f in failures] or ["no regression"]
    return "\n".join(out)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = [json.loads(pathlib.Path(p).read_text(encoding="utf-8")) for p in argv]
    for path, doc in zip(argv, docs):
        if doc.get("schema_version") != spec.SCHEMA_VERSION:
            print(f"{path}: schema {doc.get('schema_version')}, this tool reads {spec.SCHEMA_VERSION}",
                  file=sys.stderr)
            return 2
    rows, layer_rows, failures = compare(*docs)
    print(render(rows, layer_rows, failures, *argv))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
