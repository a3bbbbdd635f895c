"""Self-test of the perf ledger's harness: no forks, no timing, a few seconds.

Checks the parts a wrong number could hide in — the declared contract,
the seed discipline of the generators, how the open-loop driver charges
latency, and the verdicts of the A/B gate — on fakes and synthetic data.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import adapters  # noqa: E402
import compare  # noqa: E402
import inputs  # noqa: E402
import spec  # noqa: E402
from drivers import run_closed_loop, run_open_loop  # noqa: E402
from stats import iqr_share, percentile, span_self_seconds  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# the declared contract
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_declared_spec():
    on_disk = json.loads((adapters.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == spec.benchmark_json()


def test_declared_names_units_and_limits():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.fullmatch(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) < 64 * 1024


def test_tail_percentile_keeps_ten_samples_beyond():
    for w in spec.WORKLOADS:
        beyond = w.min_ops * (1 - w.tail_pct / 100)
        assert w.tail_pct == 50 or beyond >= 10, w.name


# ----------------------------------------------------------------------
# generators: a pure function of the seed
# ----------------------------------------------------------------------
GENERATORS = {
    "zipf": lambda s: inputs.zipf_nodes(s, 4096, 512, 1.1),
    "uniform": lambda s: inputs.zipf_nodes(s, 4096, 512, 0.0),
    "arrivals": lambda s: inputs.poisson_due_times(s, 200.0, 2.0),
    "deltas": lambda s: np.concatenate([np.concatenate(d) for d in inputs.edge_deltas(s, 4096, 4)]),
    "batches": lambda s: np.concatenate(inputs.seed_batches(s, np.arange(1000), 256, 5)),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_repeat_for_a_seed_and_differ_across_seeds(name):
    gen = GENERATORS[name]
    assert np.array_equal(gen(3), gen(3))
    assert not np.array_equal(gen(3), gen(4))


def test_generated_streams_have_the_stated_shape():
    due = inputs.poisson_due_times(0, 200.0, 8.0)
    assert np.all(np.diff(due) > 0) and due[-1] < 8.0
    assert 1400 < len(due) < 1800
    hot = inputs.zipf_nodes(0, 4096, 4000, 1.1)
    flat = inputs.zipf_nodes(0, 4096, 4000, 0.0)
    assert len(np.unique(hot)) < len(np.unique(flat))
    assert len(np.unique(inputs.probe_nodes(4096))) == 64
    # popularity belongs to the world: two traffic seeds share a hot set
    top = [set(np.argsort(-np.bincount(inputs.zipf_nodes(s, 4096, 4000, 1.1), minlength=4096))[:5])
           for s in (1, 2)]
    assert top[0] & top[1]


# ----------------------------------------------------------------------
# drivers, on a fake engine and a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def fake_engine(clock, service_s, fail=False):
    def predict(nodes):
        clock.now += service_s
        if fail:
            raise RuntimeError("engine down")
        return list(nodes)

    return predict


def open_loop(due, *, max_batch, max_wait_ms, service_s, **kwargs):
    clock = FakeClock()
    fail = kwargs.pop("fail", False)
    return run_open_loop(
        fake_engine(clock, service_s, fail), adapters.MicroBatcher(max_batch, max_wait_ms),
        adapters.Request, due, list(range(len(due))), clock=clock, sleep=clock.sleep, **kwargs,
    )


def test_open_loop_times_latency_from_the_due_time():
    # one request at a time, 50 ms each: the second and third are admitted
    # late, behind the first, and that wait is charged to them
    res = open_loop([0.0, 0.01, 0.02], max_batch=1, max_wait_ms=0.0, service_s=0.05)
    assert res.completed == 3 and res.failed == 0 and res.refused == 0
    assert res.latency_s == pytest.approx([0.05, 0.09, 0.13])
    assert res.queue_wait_s == pytest.approx([0.0, 0.04, 0.08])
    # how late the generator ran is reported, not hidden
    assert res.admit_lag_s == pytest.approx([0.0, 0.04, 0.03])
    assert res.wall_s == pytest.approx(0.15) and res.busy_s == pytest.approx(0.15)


def test_open_loop_batches_on_full_and_on_deadline():
    res = open_loop([0.0, 0.001, 0.1], max_batch=2, max_wait_ms=10.0, service_s=0.05)
    assert len(res.service_s) == 2
    assert res.latency_s == pytest.approx([0.051, 0.05, 0.05])


def test_open_loop_counts_refused_and_failed_as_slo_misses():
    res = open_loop([0.0, 0.0, 0.0], max_batch=4, max_wait_ms=1e3, service_s=0.01, max_queue=1)
    assert (res.sent, res.completed, res.refused) == (3, 1, 2)
    assert res.slo_miss_frac(10.0) == pytest.approx(2 / 3)
    down = open_loop([0.0, 0.0], max_batch=2, max_wait_ms=0.0, service_s=0.01, fail=True)
    assert (down.completed, down.failed) == (0, 2) and "engine down" in down.last_error
    assert down.slo_miss_frac(10.0) == 1.0
    late = open_loop([0.0], max_batch=1, max_wait_ms=0.0, service_s=0.2)
    assert late.slo_miss_frac(0.05) == 1.0 and late.slo_miss_frac(0.5) == 0.0


def test_closed_loop_runs_min_batches_then_stops_on_the_clock():
    clock = FakeClock()
    seen = []
    batches = [[i] * 8 for i in range(100)]
    res = run_closed_loop(
        fake_engine(clock, 0.125), batches, seconds=1.0, min_batches=3,
        before_batch=seen.append, clock=clock,
    )
    assert len(res.batch_s) == 8 and res.completed == 64 and seen == list(range(8))
    short = run_closed_loop(fake_engine(clock, 1.0), batches, seconds=0.5, min_batches=3, clock=clock)
    assert len(short.batch_s) == 3


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_percentile_matches_numpy_and_self_time_subtracts_children():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    for pct in (0, 25, 50, 75, 99, 100):
        assert percentile(values, pct) == pytest.approx(np.percentile(values, pct))
    assert iqr_share([10.0, 10.0, 10.0, 10.0]) == 0.0
    doc = {"traceEvents": [
        {"ph": "M", "name": "thread_name", "tid": 0},
        {"ph": "X", "name": "predict", "ts": 0.0, "dur": 100e6, "tid": 0},
        {"ph": "X", "name": "sample", "ts": 10e6, "dur": 30e6, "tid": 0},
        {"ph": "X", "name": "forward", "ts": 50e6, "dur": 20e6, "tid": 0},
        {"ph": "X", "name": "sample", "ts": 0.0, "dur": 5e6, "tid": 1},
    ]}
    assert span_self_seconds(doc) == pytest.approx({"predict": 50.0, "sample": 35.0, "forward": 20.0})


# ----------------------------------------------------------------------
# the A/B gate
# ----------------------------------------------------------------------
BASE = {"setup_s": 1.0, "op_p50_ms": 100.0, "op_tail_ms": 200.0, "items_per_s": 50.0, "peak_rss_mb": 300.0}


def ledger(jitter=(0.99, 1.0, 1.01), failed_frac=0.0, **scaled):
    runs = [
        {"metrics": {k: v * scaled.get(k, 1.0) * j for k, v in BASE.items()}} for j in jitter
    ]
    name = spec.WORKLOAD_NAMES[0]
    return {"schema_version": spec.SCHEMA_VERSION,
            "workloads": {name: {"runs": runs, "failed_frac": failed_frac}}}


def verdicts(doc_a, doc_b):
    rows, _, failures = compare.compare(doc_a, doc_b)
    return {r["metric"]: r["verdict"] for r in rows}, failures


def test_compare_classifies_better_worse_same_and_unresolved():
    got, failures = verdicts(ledger(), ledger(op_p50_ms=0.7, items_per_s=1.5, setup_s=0.9))
    assert got["op_p50_ms"] == "better" and got["items_per_s"] == "better"
    assert got["setup_s"] == "same" and not failures

    got, failures = verdicts(ledger(), ledger(op_p50_ms=1.3, items_per_s=0.7, setup_s=1.1))
    assert got["op_p50_ms"] == "worse" and got["items_per_s"] == "worse"
    assert len(failures) == 2

    # a file whose own runs disagree by more than the bound settles nothing
    got, failures = verdicts(ledger(jitter=(0.7, 1.0, 1.4)), ledger(op_p50_ms=1.3))
    assert set(got.values()) == {"unresolved"} and not failures


def test_compare_fails_on_a_higher_failed_frac_and_reports_the_base():
    _, failures = verdicts(ledger(), ledger(failed_frac=0.01))
    assert failures and "failed_frac" in failures[0]
    rows, layers, failures = compare.compare(ledger(), ledger(op_p50_ms=0.5))
    row = next(r for r in rows if r["metric"] == "op_p50_ms")
    assert row["ratio"] == pytest.approx(0.5) and row["a"] == pytest.approx(100.0)
    assert "base A" in compare.render(rows, layers, failures, "a.json", "b.json")
