"""Per-phase service-time breakdown: engine counters and report fields.

PR 6's observability satellite: the engine accumulates
sample/merge/forward/cache seconds in a :class:`PhaseStats` and
``run_serving_workload`` reports the per-run deltas as
``sample_ms``/``merge_ms``/``forward_ms``/``cache_ms`` plus the derived
``sampling_share`` — the number the fused sampler is meant to push
below 50%.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.serve.engine import InferenceEngine
from repro.serve.workload import merge_reports, run_serving_workload
from repro.utils.phases import PhaseStats
from tests.serve.test_frontier_parity import REQUEST_SHAPES, predict_as


class TestPhaseStats:
    def test_snapshot_and_add(self):
        p = PhaseStats()
        assert p.snapshot() == (0.0, 0.0, 0.0, 0.0)
        p.sample_s += 1.0
        p.forward_s += 2.0
        q = PhaseStats()
        q.add(p)
        q.add((0.5, 0.25, 0.0, 0.125))
        assert q.snapshot() == (1.5, 0.25, 2.0, 0.125)


class TestEngineCounters:
    @pytest.mark.parametrize("shape", REQUEST_SHAPES)
    def test_predict_populates_phases(self, tiny_dataset, trained_snapshot, shape):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=64)
        before = eng.phases.snapshot()
        assert before == (0.0, 0.0, 0.0, 0.0)
        predict_as(eng, tiny_dataset.val_idx[:8], shape)
        assert eng.phases.sample_s > 0
        assert eng.phases.forward_s > 0
        assert eng.phases.cache_s > 0  # lookup/insert time counts even on miss
        if shape == "frontier":
            assert eng.phases.merge_s > 0  # an 8-node batch merges
        else:
            assert eng.phases.merge_s == 0.0  # one-node batches never do
        # counters are cumulative across calls
        mid = eng.phases.snapshot()
        eng.predict(tiny_dataset.val_idx[8:16])
        after = eng.phases.snapshot()
        assert all(a >= m for a, m in zip(after, mid))

    @pytest.mark.parametrize("shape", REQUEST_SHAPES)
    def test_pool_mode_aggregates_worker_phases(
        self, tiny_dataset, trained_snapshot, shape
    ):
        # workers time their own sample/forward work and ship the
        # snapshot back with each result; the engine folds them in, so
        # pool counters are aggregate CPU seconds across ranks
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool", workers=2,
            cache_entries=0, timeout=30.0,
        ) as eng:
            predict_as(eng, tiny_dataset.val_idx[:8], shape)
            assert eng.phases.sample_s > 0
            assert eng.phases.forward_s > 0
            assert (eng.phases.merge_s > 0) == (shape == "frontier")

    def test_cache_hits_skip_sampling(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=256)
        nodes = tiny_dataset.val_idx[:8]
        eng.predict(nodes)
        sampled = eng.phases.sample_s
        eng.predict(nodes)  # all hits: no new sampling work
        assert eng.phases.sample_s == sampled
        assert eng.phases.cache_s > 0


class TestReportBreakdown:
    @pytest.fixture(scope="class")
    def report(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0)
        return run_serving_workload(
            eng, num_requests=48, rate_rps=5000.0, max_batch=8,
            max_wait_ms=1.0, seed=0,
        )

    def test_phase_fields_populated(self, report):
        assert report.sample_ms > 0
        assert report.merge_ms > 0
        assert report.forward_ms > 0
        assert report.cache_ms >= 0

    def test_breakdown_bounded_by_service_time(self, report):
        total_ms = (
            report.sample_ms + report.merge_ms + report.forward_ms + report.cache_ms
        )
        assert total_ms <= report.service_s * 1e3 * 1.05

    def test_sampling_share_in_unit_interval(self, report):
        assert 0.0 < report.sampling_share < 1.0

    def test_sampling_share_empty_breakdown_is_zero(self, report):
        empty = dataclasses.replace(
            report, sample_ms=0.0, merge_ms=0.0, forward_ms=0.0, cache_ms=0.0
        )
        assert empty.sampling_share == 0.0

    def test_merge_reports_sums_phases(self, report):
        merged = merge_reports([report, report])
        assert merged.sample_ms == pytest.approx(2 * report.sample_ms)
        assert merged.merge_ms == pytest.approx(2 * report.merge_ms)
        assert merged.forward_ms == pytest.approx(2 * report.forward_ms)
        assert merged.cache_ms == pytest.approx(2 * report.cache_ms)

    def test_phase_deltas_are_per_run(self, tiny_dataset, trained_snapshot):
        # the engine counter is cumulative; the report must carry only
        # this run's delta, so two identical runs report similar numbers
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0)
        kw = dict(num_requests=16, rate_rps=5000.0, max_batch=4,
                  max_wait_ms=1.0, seed=0)
        first = run_serving_workload(eng, **kw)
        second = run_serving_workload(eng, **kw)
        assert second.sample_ms < first.sample_ms + second.sample_ms
        assert second.sample_ms > 0
