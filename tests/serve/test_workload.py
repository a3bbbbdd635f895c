"""Workload generators, the virtual-clock serving driver and the SLO objective."""

import dataclasses
import time

import numpy as np
import pytest

from repro.serve.engine import InferenceEngine
from repro.serve.workload import (
    merge_reports,
    poisson_arrivals,
    run_serving_workload,
    slo_objective,
    zipf_nodes,
)
from repro.utils.rng import derive_rng


class TestGenerators:
    def test_zipf_deterministic_in_seed(self):
        catalog = np.arange(100, dtype=np.int64)
        a = zipf_nodes(catalog, 50, alpha=1.2, rng=derive_rng(0, "z"))
        b = zipf_nodes(catalog, 50, alpha=1.2, rng=derive_rng(0, "z"))
        np.testing.assert_array_equal(a, b)

    def test_zipf_skew_concentrates_mass(self):
        catalog = np.arange(1000, dtype=np.int64)
        skewed = zipf_nodes(catalog, 2000, alpha=1.5, rng=derive_rng(0, "z"))
        uniform = zipf_nodes(catalog, 2000, alpha=0.0, rng=derive_rng(0, "z"))
        assert len(np.unique(skewed)) < len(np.unique(uniform)) / 2

    def test_zipf_draws_from_catalog(self):
        catalog = np.array([5, 9, 42], dtype=np.int64)
        draws = zipf_nodes(catalog, 30, alpha=1.0, rng=derive_rng(1, "z"))
        assert set(draws) <= set(catalog.tolist())

    def test_zipf_rejects_empty_catalog(self):
        with pytest.raises(ValueError, match="empty"):
            zipf_nodes(np.array([], dtype=np.int64), 5)

    def test_poisson_mean_gap_matches_rate(self):
        times = poisson_arrivals(4000, 100.0, rng=derive_rng(0, "p"))
        assert np.all(np.diff(times) >= 0)
        assert np.mean(np.diff(times)) == pytest.approx(0.01, rel=0.15)

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate_rps"):
            poisson_arrivals(10, 0.0)


class TestDriver:
    @pytest.fixture(scope="class")
    def engine(self, tiny_dataset, trained_snapshot):
        return InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=256)

    def test_report_accounts_every_request(self, engine):
        report = run_serving_workload(
            engine, num_requests=64, rate_rps=5000.0, max_batch=8,
            max_wait_ms=1.0, seed=0,
        )
        assert report.requests == 64
        assert len(report.latencies_s) == 64
        assert np.all(report.latencies_s > 0)
        assert report.full_flushes + report.deadline_flushes + report.drain_flushes > 0
        assert report.throughput_rps > 0
        assert report.duration_s >= report.service_s

    def test_percentiles_ordered(self, engine):
        report = run_serving_workload(
            engine, num_requests=64, rate_rps=2000.0, max_batch=4,
            max_wait_ms=2.0, seed=1,
        )
        assert report.p50_ms <= report.p95_ms <= report.p99_ms
        assert report.p50_ms > 0

    def test_zipf_traffic_hits_cache(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=4096)
        report = run_serving_workload(
            eng, num_requests=200, rate_rps=5000.0, zipf_alpha=1.3,
            max_batch=8, max_wait_ms=1.0, seed=0,
        )
        assert report.cache.hit_rate > 0.3  # hot nodes repeat

    def test_unbatched_config_serves_singly(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0)
        report = run_serving_workload(
            eng, num_requests=32, rate_rps=100.0, max_batch=1,
            max_wait_ms=5.0, seed=0,
        )
        assert report.mean_batch == 1.0
        assert report.full_flushes == 32

    def test_closed_loop_completes_all(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=256)
        report = run_serving_workload(
            eng, num_requests=48, closed_loop=True, concurrency=6,
            max_batch=4, max_wait_ms=1.0, seed=0,
        )
        assert report.requests == 48
        assert np.all(report.latencies_s > 0)

    def test_slo_attainment_bounds(self, engine):
        report = run_serving_workload(
            engine, num_requests=32, rate_rps=2000.0, max_batch=4,
            max_wait_ms=1.0, seed=2,
        )
        assert report.slo_attainment(1e9) == 1.0
        assert report.slo_attainment(1e-9) == 0.0

    def test_overload_coalesces_into_batches(self, tiny_dataset, trained_snapshot):
        """Arrivals far faster than service must build real batches —
        the queue forms behind the busy server and flushes full."""
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0)
        report = run_serving_workload(
            eng, num_requests=80, rate_rps=50000.0, zipf_alpha=0.0,
            max_batch=8, max_wait_ms=2.0, seed=7,
        )
        assert report.mean_batch > 1.5
        assert report.full_flushes > 0

    def test_report_counters_do_not_track_the_engine(
        self, tiny_dataset, trained_snapshot
    ):
        """A returned report holds its own run's counts: a second run on
        the same engine must not rewrite the first report's
        cache/transport, and counts taken between runs belong to
        neither."""
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=256)
        first = run_serving_workload(
            eng, num_requests=32, rate_rps=2000.0, max_batch=4, seed=0,
        )
        cache_before = dataclasses.asdict(first.cache)
        transport_before = dataclasses.asdict(first.transport)
        eng.transport.arena_hits += 3  # what pool-mode slot hits would do
        second = run_serving_workload(
            eng, num_requests=32, rate_rps=2000.0, max_batch=4, seed=1,
        )
        # the engine kept counting ...
        assert eng.cache.stats.lookups == first.cache.lookups + second.cache.lookups
        assert eng.transport.arena_hits == transport_before["arena_hits"] + 3
        # ... but each report reads its own run
        assert second.transport.arena_hits == 0
        assert dataclasses.asdict(first.cache) == cache_before
        assert dataclasses.asdict(first.transport) == transport_before


class SlowFakeEngine:
    """Minimal engine double with a fixed real service time per batch —
    saturates any open-loop rate deterministically."""

    mode = "fake"

    def __init__(self, dataset, service_s=0.0005):
        self.dataset = dataset
        self.service_s = service_s
        from repro.serve.cache import EmbeddingCache
        from repro.shm.arena import TransportStats

        self.cache = EmbeddingCache(0)
        self.transport = TransportStats()
        self.predicted: list[int] = []

    def predict(self, node_ids):
        time.sleep(self.service_s)
        self.predicted.extend(int(n) for n in node_ids)
        return np.zeros((len(node_ids), 2), dtype=np.float32)


class TestAdmissionControl:
    def overload_report(self, tiny_dataset, queue_limit, num_requests=400):
        eng = SlowFakeEngine(tiny_dataset)
        return run_serving_workload(
            eng, num_requests=num_requests, rate_rps=1e6, zipf_alpha=0.0,
            max_batch=4, max_wait_ms=1.0, queue_limit=queue_limit, seed=3,
        ), eng

    def test_queue_bounded_past_saturation(self, tiny_dataset):
        """Arrivals at 1M rps against a ~2ms/batch server: without a
        limit the queue grows without bound; with one it never exceeds
        the bound and overflow requests are shed, oldest first."""
        unbounded, _ = self.overload_report(tiny_dataset, queue_limit=None)
        bounded, eng = self.overload_report(tiny_dataset, queue_limit=16)
        assert unbounded.max_queue > 16  # saturation really happened
        assert unbounded.shed_count == 0
        assert bounded.max_queue <= 16
        assert bounded.shed_count > 0
        assert bounded.served == bounded.requests - bounded.shed_count
        assert len(eng.predicted) == bounded.served

    def test_every_request_resolved(self, tiny_dataset):
        report, _ = self.overload_report(tiny_dataset, queue_limit=8)
        assert len(report.latencies_s) == report.requests
        shed_mask = np.isnan(report.latencies_s)
        assert int(shed_mask.sum()) == report.shed_count
        assert np.all(report.latencies_s[~shed_mask] > 0)

    def test_shedding_caps_served_tail_latency(self, tiny_dataset):
        """The point of admission control: the served tail stays bounded
        while the unbounded queue's tail grows with the backlog."""
        unbounded, _ = self.overload_report(tiny_dataset, queue_limit=None)
        bounded, _ = self.overload_report(tiny_dataset, queue_limit=8)
        assert bounded.p99_ms < unbounded.p99_ms

    def test_shed_counts_as_slo_miss(self, tiny_dataset):
        report, _ = self.overload_report(tiny_dataset, queue_limit=8)
        assert report.shed_count > 0
        # even an infinite SLO cannot reach 1.0 once requests were refused
        attainment = report.slo_attainment(1e12)
        assert attainment == pytest.approx(report.served / report.requests)

    def test_closed_loop_sheds_and_completes(self, tiny_dataset):
        eng = SlowFakeEngine(tiny_dataset)
        report = run_serving_workload(
            eng, num_requests=60, closed_loop=True, concurrency=12,
            max_batch=2, max_wait_ms=0.5, queue_limit=4, seed=0,
        )
        assert report.requests == 60
        assert report.served + report.shed_count == 60
        assert report.max_queue <= 4

    def test_closed_loop_shed_keeps_arrival_order(self, tiny_dataset, monkeypatch):
        """Invariant guard: requests enter the batcher in nondecreasing
        arrival order even under shed-heavy closed-loop traffic — a
        shed's replacement re-enters at the sorted *head* of the arrival
        queue (it carries the just-popped head's timestamp), so
        shed-oldest and the deadline accounting always see the true
        oldest request."""
        from repro.serve.batcher import MicroBatcher

        orig_submit = MicroBatcher.submit
        last_arrival = [-np.inf]

        def checked(self, request):
            assert request.arrival >= last_arrival[0], "out-of-order submit"
            last_arrival[0] = request.arrival
            return orig_submit(self, request)

        monkeypatch.setattr(MicroBatcher, "submit", checked)
        eng = SlowFakeEngine(tiny_dataset)
        report = run_serving_workload(
            eng, num_requests=80, closed_loop=True, concurrency=16,
            max_batch=2, max_wait_ms=0.5, queue_limit=3, seed=1,
        )
        assert report.shed_count > 0  # the scenario actually triggered

    def test_queue_limit_validated(self, tiny_dataset):
        eng = SlowFakeEngine(tiny_dataset)
        with pytest.raises(ValueError, match="queue_limit"):
            run_serving_workload(eng, num_requests=4, queue_limit=0)

    def test_no_shedding_below_saturation(self, tiny_dataset, trained_snapshot):
        """A generous limit on a light workload is invisible — same
        latencies as the unbounded run."""
        def run():
            eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0)
            return run_serving_workload(
                eng, num_requests=48, rate_rps=500.0, max_batch=4,
                max_wait_ms=1.0, queue_limit=1024, seed=5,
            )

        report = run()
        assert report.shed_count == 0
        assert report.served == 48


class TestMergeReports:
    def test_merge_aggregates_segments(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0)
        reports = [
            run_serving_workload(
                eng, num_requests=32, rate_rps=2000.0, max_batch=4,
                max_wait_ms=1.0, seed=s,
            )
            for s in (0, 1)
        ]
        merged = merge_reports(reports)
        assert merged.requests == 64
        assert merged.duration_s == pytest.approx(sum(r.duration_s for r in reports))
        assert merged.full_flushes == sum(r.full_flushes for r in reports)
        assert len(merged.latencies_s) == 64
        assert min(r.p50_ms for r in reports) <= merged.p50_ms <= max(
            r.p50_ms for r in reports
        )

    def test_merge_single_and_empty(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0)
        report = run_serving_workload(
            eng, num_requests=8, rate_rps=2000.0, max_batch=4, max_wait_ms=1.0,
        )
        assert merge_reports([report]) is report
        with pytest.raises(ValueError, match="at least one"):
            merge_reports([])


def _synthetic_report(scale=1.0, **overrides):
    """A hand-built report with every additive field non-zero, so the
    aggregation regression below catches any field merge_reports drops."""
    from repro.serve.cache import CacheStats
    from repro.serve.workload import ServingReport
    from repro.shm.arena import TransportStats

    base = dict(
        mode="inline",
        requests=10,
        duration_s=1.0 * scale,
        service_s=0.5 * scale,
        throughput_rps=10.0,
        mean_ms=1.0,
        p50_ms=1.0,
        p95_ms=2.0,
        p99_ms=3.0,
        mean_batch=2.0,
        full_flushes=2,
        deadline_flushes=3,
        drain_flushes=1,
        cache=CacheStats(hits=4, misses=6),
        transport=TransportStats(),
        shed_count=1,
        max_queue=4,
        sample_ms=10.0 * scale,
        merge_ms=5.0 * scale,
        forward_ms=20.0 * scale,
        cache_ms=1.0 * scale,
        updates_applied=2,
        update_ms=7.0 * scale,
        stale_served=3,
        invalidated=5,
        graph_generation=2,
        latencies_s=np.full(10, 0.001 * scale),
    )
    base.update(overrides)
    return ServingReport(**base)


class TestMergeReportsAggregation:
    """Regression: merge_reports must aggregate EVERY additive field —
    the per-phase engine breakdown and the streaming-update freshness
    counters included (both were easy to silently drop when new fields
    landed on ServingReport)."""

    def test_phase_fields_sum(self):
        merged = merge_reports([_synthetic_report(1.0), _synthetic_report(2.0)])
        assert merged.sample_ms == pytest.approx(30.0)
        assert merged.merge_ms == pytest.approx(15.0)
        assert merged.forward_ms == pytest.approx(60.0)
        assert merged.cache_ms == pytest.approx(3.0)
        # sampling_share recomputes over the merged totals
        assert merged.sampling_share == pytest.approx(30.0 / 108.0)

    def test_freshness_fields_sum(self):
        merged = merge_reports([
            _synthetic_report(1.0, graph_generation=2),
            _synthetic_report(1.0, updates_applied=3, stale_served=1,
                              invalidated=2, graph_generation=5),
        ])
        assert merged.updates_applied == 5
        assert merged.update_ms == pytest.approx(14.0)
        assert merged.stale_served == 4
        assert merged.invalidated == 7
        # generation is a high-water mark: the last segment's value wins
        assert merged.graph_generation == 5

    def test_counts_and_peaks(self):
        merged = merge_reports([
            _synthetic_report(1.0, max_queue=4), _synthetic_report(1.0, max_queue=9),
        ])
        assert merged.requests == 20
        assert merged.shed_count == 2
        assert merged.max_queue == 9
        assert merged.service_s == pytest.approx(1.0)
        assert merged.freshness == pytest.approx(1.0 - 6 / 18)

    def test_mixed_schema_versions_refused(self):
        old = _synthetic_report(1.0, schema_version=99)
        new = _synthetic_report(1.0)
        with pytest.raises(ValueError, match="mixed schema_version"):
            merge_reports([old, new])


class TestAllShedSegments:
    """Regression: a segment that shed everything under ``queue_limit``
    (or that carries no latencies at all) must merge NaN-free —
    percentiles over the served subset only, served == 0 when nothing
    survived."""

    def test_all_shed_report_is_nan_free(self):
        shed = _synthetic_report(
            1.0, shed_count=10, latencies_s=np.full(10, np.nan),
            mean_ms=0.0, p50_ms=0.0, p95_ms=0.0, p99_ms=0.0,
        )
        assert shed.served == 0
        assert shed.slo_attainment(1e9) == 0.0
        merged = merge_reports([shed, shed])
        assert merged.served == 0 and merged.shed_count == 20
        for value in (merged.mean_ms, merged.p50_ms, merged.p95_ms, merged.p99_ms):
            assert np.isfinite(value)

    def test_mixed_shed_and_served_percentiles_use_served_only(self):
        served = _synthetic_report(1.0)  # 10 requests at 1 ms
        shed = _synthetic_report(
            1.0, shed_count=10, latencies_s=np.full(10, np.nan),
        )
        merged = merge_reports([served, shed])
        # the base synthetic segment itself sheds 1 of its 10 requests
        assert merged.served == 9 and merged.shed_count == 11
        assert merged.p99_ms == pytest.approx(1.0)
        assert np.isfinite(merged.mean_ms)

    def test_none_latency_segment_merges(self):
        merged = merge_reports(
            [_synthetic_report(1.0), _synthetic_report(1.0, latencies_s=None)]
        )
        # the latency-less segment pads with NaN (unknown == not served
        # within any SLO), keeping request accounting intact
        assert len(merged.latencies_s) == 20
        assert np.isnan(merged.latencies_s).sum() == 10
        assert np.isfinite(merged.p99_ms)


class FakeReport:
    def __init__(self, p99_ms, throughput_rps):
        self.p99_ms = p99_ms
        self.throughput_rps = throughput_rps


class TestSloObjective:
    def test_within_slo_is_inverse_throughput(self):
        r = FakeReport(p99_ms=10.0, throughput_rps=200.0)
        assert slo_objective(r, slo_ms=20.0) == pytest.approx(1 / 200.0)

    def test_overshoot_penalised(self):
        ok = FakeReport(p99_ms=20.0, throughput_rps=200.0)
        late = FakeReport(p99_ms=40.0, throughput_rps=200.0)
        assert slo_objective(late, slo_ms=20.0) > 5 * slo_objective(ok, slo_ms=20.0)

    def test_throughput_cannot_fully_buy_back_violations(self):
        """A config that doubles throughput by doubling p99 past the SLO
        must still rank worse than the compliant one."""
        ok = FakeReport(p99_ms=18.0, throughput_rps=100.0)
        fast = FakeReport(p99_ms=40.0, throughput_rps=200.0)
        assert slo_objective(fast, slo_ms=20.0) > slo_objective(ok, slo_ms=20.0)

    def test_validation(self):
        r = FakeReport(10.0, 10.0)
        with pytest.raises(ValueError, match="slo_ms"):
            slo_objective(r, slo_ms=0.0)
        with pytest.raises(ValueError, match="penalty"):
            slo_objective(r, slo_ms=1.0, penalty=0.0)
