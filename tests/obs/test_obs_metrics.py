"""Unit contract of the dependency-free metrics registry."""

import math
import pickle

import pytest

from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_merge_adds(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(2)
        a.merge(b.snapshot())
        assert a.value == 5


class TestGauge:
    """Gauge merging has an explicit declared policy — keep-max by
    default (high-water marks like peak queue depth), keep-min on
    request.  The fold must be order-independent: merging registries
    A,B and B,A has to land on the same value, or cross-rank metric
    documents would depend on rank iteration order."""

    def test_default_policy_keeps_max(self):
        g = Gauge()
        g.set(1.5)
        other = Gauge()
        other.set(7.0)
        g.merge(other.snapshot())
        assert g.value == 7.0
        # the lower side arriving second must NOT win (no last-write)
        low = Gauge()
        low.set(2.0)
        g.merge(low.snapshot())
        assert g.value == 7.0

    def test_min_policy_keeps_min(self):
        g = Gauge(policy="min")
        g.set(5.0)
        other = Gauge(policy="min")
        other.set(9.0)
        g.merge(other.snapshot())
        assert g.value == 5.0

    def test_merge_is_order_independent(self):
        values = (3.0, 11.0, 7.0)
        for policy, expected in (("max", 11.0), ("min", 3.0)):
            folds = []
            for order in ((0, 1, 2), (2, 1, 0), (1, 2, 0)):
                acc = Gauge(policy=policy)
                for i in order:
                    g = Gauge(policy=policy)
                    g.set(values[i])
                    acc.merge(g.snapshot())
                folds.append(acc.value)
            assert folds == [expected] * 3

    def test_unset_side_is_neutral(self):
        # an unset gauge (value 0.0, never written) must not drag a
        # keep-min fold to zero or pollute a keep-max fold
        set_side = Gauge(policy="min")
        set_side.set(4.0)
        unset = Gauge(policy="min")
        set_side.merge(unset.snapshot())
        assert set_side.value == 4.0
        fresh = Gauge(policy="min")
        fresh.merge(set_side.snapshot())
        assert fresh.value == 4.0

    def test_policy_mismatch_refused(self):
        g = Gauge(policy="max")
        other = Gauge(policy="min")
        other.set(1.0)
        with pytest.raises(ValueError, match="policy"):
            g.merge(other.snapshot())
        with pytest.raises(ValueError, match="policy"):
            Gauge(policy="last")


class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        h = Histogram()
        for v in (0.5, 2.0, 8.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(10.5)
        assert h.min == 0.5 and h.max == 8.0

    def test_bucket_placement_is_log2(self):
        h = Histogram(lo_exp=0, hi_exp=4)
        # value in [2^e, 2^(e+1)) lands in bucket e - lo_exp + 1
        h.observe(1.0)
        h.observe(3.0)
        h.observe(8.0)
        assert h.counts[1] == 1  # [1, 2)
        assert h.counts[2] == 1  # [2, 4)
        assert h.counts[4] == 1  # [8, 16) = top regular bucket
        # underflow and overflow edges
        h.observe(0.25)
        h.observe(64.0)
        assert h.counts[0] == 1
        assert h.counts[-1] == 1

    def test_percentiles_are_bucket_upper_bounds(self):
        h = Histogram(lo_exp=-4, hi_exp=4)
        for _ in range(99):
            h.observe(1.5)  # bucket [1, 2)
        h.observe(12.0)  # bucket [8, 16)
        assert h.p50 == 2.0
        assert h.p95 == 2.0
        assert h.p99 == 2.0
        assert h.percentile(100) == 16.0

    def test_percentile_empty_and_overflow(self):
        h = Histogram(lo_exp=0, hi_exp=2)
        assert h.p50 == 0.0
        h.observe(1e9)  # overflow bucket: percentile answers the max
        assert h.p99 == 1e9

    def test_merge_folds_buckets_and_extremes(self):
        a, b = Histogram(lo_exp=0, hi_exp=4), Histogram(lo_exp=0, hi_exp=4)
        a.observe(1.0)
        b.observe(8.0)
        b.observe(0.5)
        a.merge(b.snapshot())
        assert a.count == 3
        assert a.min == 0.5 and a.max == 8.0
        assert sum(a.counts) == 3

    def test_merge_rejects_mismatched_buckets(self):
        with pytest.raises(ValueError):
            Histogram(lo_exp=0, hi_exp=4).merge(Histogram(lo_exp=-2, hi_exp=4))

    def test_bucket_bounds_end_with_inf(self):
        bounds = Histogram(lo_exp=0, hi_exp=2).bucket_bounds()
        assert bounds[0] == 1.0
        assert math.isinf(bounds[-1])

    def test_picklable(self):
        h = Histogram()
        h.observe(1.0)
        clone = pickle.loads(pickle.dumps(h))
        assert clone.count == 1 and clone.sum == 1.0


class TestMetricRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_names_sorted_and_contains(self):
        reg = MetricRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "zzz" not in reg

    def test_snapshot_schema(self):
        reg = MetricRegistry()
        reg.counter("c").inc(2)
        doc = reg.snapshot()
        assert doc["schema_version"] == METRICS_SCHEMA_VERSION
        assert doc["metrics"]["c"] == {"type": "counter", "value": 2}

    def test_merge_cross_rank_folding(self):
        # the pool use-case: fold a worker registry's snapshot into the
        # engine's, creating unseen instruments on the fly
        worker = MetricRegistry()
        worker.counter("reqs").inc(7)
        worker.histogram("lat", lo_exp=-10, hi_exp=2).observe(0.5)
        parent = MetricRegistry()
        parent.counter("reqs").inc(1)
        parent.merge(worker.snapshot())
        assert parent.counter("reqs").value == 8
        assert parent.histogram("lat", lo_exp=-10, hi_exp=2).count == 1

    def test_merge_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            MetricRegistry().merge({"schema_version": 999, "metrics": {}})

    def test_gauge_policy_conflict_raises(self):
        reg = MetricRegistry()
        reg.gauge("peak", policy="max")
        with pytest.raises(ValueError, match="policy"):
            reg.gauge("peak", policy="min")

    def test_gauge_merge_permutation_invariant_through_registry(self):
        # the cross-rank metrics fold: per-rank documents may arrive in
        # any order, yet the folded gauge must be identical
        docs = []
        for peak in (3.0, 9.0, 5.0):
            reg = MetricRegistry()
            reg.gauge("peak").set(peak)
            docs.append(reg.snapshot())
        folds = []
        for order in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
            acc = MetricRegistry()
            for i in order:
                acc.merge(docs[i])
            folds.append(acc.gauge("peak").value)
        assert folds == [9.0, 9.0, 9.0]
        # gauge policy survives the snapshot/merge round-trip
        merged_doc = MetricRegistry()
        merged_doc.merge(docs[0])
        assert merged_doc.snapshot()["metrics"]["peak"]["policy"] == "max"
