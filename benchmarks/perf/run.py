"""Wall-clock perf ledger: one command, named workloads, named metrics.

Two ways to call it, from the root of a checkout:

``python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1``
    One pass of one workload.  The last line of stdout is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}``: every
    end-to-end metric with ``--trace 0``, every per-layer metric with
    ``--trace 1``.

``python3 benchmarks/perf/run.py --seed S --out FILE [--workloads a,b] [--trace] [--repeats N]``
    The ledger: every workload (untraced, then traced with ``--trace``)
    written to one schema-versioned JSON that ``compare.py`` reads.

Each pass runs in a fresh subprocess with a deadline, with BLAS pinned to
one thread and glibc told to keep freed memory (see ``ENV_PINS``).  This
parent stays on the standard library so its own footprint is nil; it
reads the child's peak RSS from the kernel and checks that no ``/dev/shm``
segment outlives the child.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

#: Host discipline, applied to every workload subprocess before numpy is
#: imported and recorded in the host fingerprint.  One BLAS thread: with
#: the host default, two ranks on two cores oversubscribe and the process
#: backend measures slower than one inline rank.  No malloc trimming or
#: mmap: on this class of VM the cost of faulting fresh pages back in
#: varies tenfold from epoch to epoch, which made epoch times bimodal.
ENV_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
    "MALLOC_MMAP_MAX_": "0",
    "PYTHONHASHSEED": "0",
}


def shm_listing() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_pass(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload pass in a fresh subprocess; never hangs, never raises."""
    before = shm_listing()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env={**os.environ, **ENV_PINS}, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    timed_out = threading.Event()

    def on_deadline():
        timed_out.set()
        kill_group(proc.pid)

    timer = threading.Timer(spec.DEADLINE_SECONDS, on_deadline)
    timer.start()
    try:
        stdout = proc.stdout.read()
        # wait4, not Popen.wait: it hands back this child's own rusage,
        # ranks and pool workers included, not the running maximum
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        kill_group(proc.pid)  # nothing the child started may outlive it
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start

    result = {"metrics": {}, "attempted": 1, "failed": 1, "detail": {}}
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result["detail"]["error"] = "worker printed no result"
    else:
        reason = "deadline" if timed_out.is_set() else f"exit code {proc.returncode}"
        result["detail"]["error"] = f"worker ended by {reason}"
    if not trace and result["metrics"]:
        result["metrics"]["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    survivors = sorted(shm_listing() - before)
    result["shm_survivors"] = survivors
    result["attempted"] += len(survivors)
    result["failed"] += len(survivors)
    result["wall_s"] = wall
    return result


def contract_line(result: dict, trace: int) -> dict:
    units = {m.name: m.unit for m in (spec.PER_LAYER if trace else spec.END_TO_END)}
    complete = set(result["metrics"]) == set(units)
    return {
        "correct": bool(complete and result["failed"] == 0),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "env_pins": ENV_PINS,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def print_table(name: str, section: str, metrics: dict, declared) -> None:
    units = {m.name: m.unit for m in declared}
    for metric, value in metrics.items():
        if section == "per_layer" and value == 0:
            continue  # idle layer
        print(f"{name:28s} {section:10s} {metric:34s} {value:16.6g} {units[metric]}")


def run_ledger(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(spec.WORKLOAD_NAMES)
    for name in names:
        spec.workload(name)
    doc = {
        "schema_version": spec.SCHEMA_VERSION,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "git_commit": git_commit(),
        "host": host_fingerprint(),
        "bounds": {m.name: m.bound for m in spec.END_TO_END},
        "workloads": {},
    }
    failed_any = False
    for name in names:
        entry = {"runs": [], "failed_frac": 0.0}
        attempted = failed = 0
        for _ in range(args.repeats):
            res = run_pass(name, args.seed, args.seconds, 0)
            entry["runs"].append(res)
            attempted += res["attempted"]
            failed += res["failed"]
            print_table(name, "end_to_end", res["metrics"], spec.END_TO_END)
            # numpy and BLAS versions are the child's to know
            doc["host"].update(res["detail"].pop("host", {}))
        if args.trace:
            res = run_pass(name, args.seed, args.seconds, 1)
            res["detail"].pop("host", None)
            entry["trace"] = res
            attempted += res["attempted"]
            failed += res["failed"]
            print_table(name, "per_layer", res["metrics"], spec.PER_LAYER)
        entry["failed_frac"] = failed / attempted
        print(f"{name:28s} {'':10s} {'failed_frac':34s} {entry['failed_frac']:16.6g} ratio")
        failed_any |= failed > 0
        doc["workloads"][name] = entry
    doc["host"]["loadavg_1m_end"] = os.getloadavg()[0]
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 1 if failed_any else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads", default="",
                        help="one workload name (comma-separated list with --out)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", help="write the ledger JSON here (runs every workload)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="untraced runs per workload in the ledger (its own spread)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.out:
        return run_ledger(args)
    spec.workload(args.workloads)  # exactly one, and a known one
    result = run_pass(args.workloads, args.seed, args.seconds, args.trace)
    line = contract_line(result, args.trace)
    if not line["metrics"]:
        print(f"run.py: {result['detail'].get('error', 'no result')}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0  # a failed check is reported in the line, not in the exit code


if __name__ == "__main__":
    sys.exit(main())
