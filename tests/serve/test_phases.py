"""Per-phase service-time breakdown: engine counters and report fields.

The engine's span recorder folds every span into a
``serve.phase.<span>_s`` histogram, ``engine.phases`` reads the
sample/merge/forward/cache sums back, and ``run_serving_workload``
reports the per-run deltas as
``sample_ms``/``merge_ms``/``forward_ms``/``cache_ms`` plus the derived
``sampling_share`` — the number the fused sampler is meant to push
below 50%.  Tracing adds only the rings: the histograms are the same
with it on or off.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs.export import metrics_document
from repro.obs.metrics import MetricRegistry
from repro.obs.trace import (
    CANONICAL_SPANS,
    SPAN_CACHE,
    SPAN_FORWARD,
    SPAN_MERGE,
    SPAN_SAMPLE,
    SpanRecorder,
)
from repro.serve.engine import InferenceEngine, PhaseView
from repro.serve.workload import merge_reports, run_serving_workload
from tests.serve.test_frontier_parity import REQUEST_SHAPES, predict_as


def phase_counts(engine) -> dict:
    """Sample count of every ``serve.phase.*`` histogram of an engine."""
    doc = metrics_document(engine.metrics)["metrics"]
    return {
        name: snap["count"] for name, snap in doc.items()
        if name.startswith("serve.phase.")
    }


class TestRecorderPhases:
    def test_snapshot_and_merge(self):
        metrics = MetricRegistry()
        phases = PhaseView(metrics)
        assert phases.snapshot() == (0.0, 0.0, 0.0, 0.0)
        engine_side = SpanRecorder(metrics)
        engine_side.record(SPAN_SAMPLE, 1.0, 2.0)
        engine_side.record(SPAN_FORWARD, 1.0, 3.0)
        # a worker's private histograms fold in, buckets included
        worker = SpanRecorder()
        worker.record(SPAN_SAMPLE, 0.0, 0.5)
        worker.record(SPAN_MERGE, 0.0, 0.25)
        worker.record(SPAN_CACHE, 0.0, 0.125)
        engine_side.merge(worker.take())
        assert worker.take() == {}  # a take starts afresh
        assert phases.snapshot() == (1.5, 0.25, 2.0, 0.125)
        assert metrics.get("serve.phase.sample_s").count == 2
        assert engine_side.enabled is False  # no ring: histograms only


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

    def test_cache_and_transport_are_per_run(self, tiny_dataset, trained_snapshot):
        # a report's cache lookups cover its own requests only, like its
        # phase fields: one lookup per distinct node per batch at most
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=256)
        kw = dict(num_requests=128, rate_rps=5000.0, max_batch=4,
                  max_wait_ms=1.0, seed=0)
        first = run_serving_workload(eng, **kw)
        second = run_serving_workload(eng, **kw)
        for report in (first, second):
            assert 0 < report.cache.lookups <= report.requests
            assert report.transport.total == 0  # inline: no transport
        assert second.cache.hit_rate > first.cache.hit_rate  # warm cache
        life = eng.cache.stats
        assert life.lookups == first.cache.lookups + second.cache.lookups
        merged = merge_reports([first, second])
        assert dataclasses.asdict(merged.cache) == dataclasses.asdict(life)


class TestOneTimer:
    """The recorder is the serving path's only timer: tracing adds the
    rings and nothing else."""

    @staticmethod
    def serve(dataset, snapshot, mode, batches, *, tracing):
        with InferenceEngine(
            snapshot, dataset, mode=mode, workers=2, cache_entries=0,
            timeout=30.0, tracing=tracing,
        ) as eng:
            for batch in batches:
                eng.predict(batch)
            records = eng.trace_arena.drain() if tracing else []
            return phase_counts(eng), records

    @staticmethod
    def ring_count(records, span: str) -> int:
        return sum(CANONICAL_SPANS[r.name_id] == span for r in records)

    @pytest.mark.parametrize("mode", ["inline", "pool"])
    def test_trace_on_equals_off_for_metrics(
        self, tiny_dataset, trained_snapshot, mode
    ):
        # single-node batches and a merged one: both sampling paths
        nodes = tiny_dataset.val_idx[:10]
        batches = [nodes[i : i + 1] for i in range(4)] + [nodes[4:]]
        off, _ = self.serve(tiny_dataset, trained_snapshot, mode, batches, tracing=False)
        on, records = self.serve(tiny_dataset, trained_snapshot, mode, batches, tracing=True)
        assert on == off
        assert {"sample", "merge", "forward", "cache", "predict"} <= {
            name[len("serve.phase."):-len("_s")] for name in off
        }
        # every span the histograms counted is in the rings too
        for name, count in off.items():
            assert self.ring_count(records, name[len("serve.phase."):-len("_s")]) == count

    def test_untraced_pool_document_counts_plans_and_barriers(
        self, tiny_dataset, trained_snapshot
    ):
        nodes = tiny_dataset.val_idx[:10]
        batches = [nodes[:6], nodes[6:], nodes[:1]]  # the last leaves rank 1 empty
        counts, _ = self.serve(
            tiny_dataset, trained_snapshot, "pool", batches, tracing=False
        )
        ranks = 2
        assert counts["serve.phase.plan_s"] == len(batches) * ranks
        assert counts["serve.phase.barrier_s"] == len(batches)
        assert counts["serve.phase.launch_s"] == 1

    @pytest.mark.parametrize("mode", ["inline", "pool"])
    def test_single_node_batches_record_no_merge(
        self, tiny_dataset, trained_snapshot, mode
    ):
        batches = [[int(n)] for n in tiny_dataset.val_idx[:6]]
        counts, records = self.serve(
            tiny_dataset, trained_snapshot, mode, batches, tracing=True
        )
        assert counts.get("serve.phase.merge_s", 0) == 0
        assert self.ring_count(records, "merge") == 0
        assert counts["serve.phase.sample_s"] == len(batches)
