"""EmbeddingCache LRU eviction order, hit/miss accounting and graph-delta
invalidation."""

import numpy as np
import pytest

from repro.serve.cache import EmbeddingCache


def row(v):
    return np.full(4, float(v), dtype=np.float32)


class TestLookups:
    def test_miss_then_hit(self):
        c = EmbeddingCache(4)
        assert c.get(7) is None
        c.put(7, row(7))
        np.testing.assert_array_equal(c.get(7), row(7))
        assert c.stats.hits == 1 and c.stats.misses == 1
        assert c.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_zero_before_lookups(self):
        assert EmbeddingCache(4).stats.hit_rate == 0.0

    def test_contains_does_not_touch_counters(self):
        c = EmbeddingCache(4)
        c.put(1, row(1))
        assert 1 in c and 2 not in c
        assert c.stats.lookups == 0

    def test_stored_rows_are_isolated_copies(self):
        c = EmbeddingCache(4)
        src = row(1)
        c.put(1, src)
        src[:] = 99.0
        np.testing.assert_array_equal(c.get(1), row(1))
        with pytest.raises(ValueError):
            c.get(1)[:] = 0.0  # handed out read-only


class TestEviction:
    def test_lru_order(self):
        c = EmbeddingCache(2)
        c.put(1, row(1))
        c.put(2, row(2))
        c.get(1)  # refresh 1: now 2 is least recently used
        c.put(3, row(3))
        assert 2 not in c and 1 in c and 3 in c
        assert c.stats.evictions == 1

    def test_eviction_count_tracks_capacity_pressure(self):
        c = EmbeddingCache(3)
        for i in range(10):
            c.put(i, row(i))
        assert len(c) == 3
        assert c.stats.evictions == 7
        assert set(k for k in range(10) if k in c) == {7, 8, 9}

    def test_put_refresh_does_not_evict(self):
        c = EmbeddingCache(2)
        c.put(1, row(1))
        c.put(2, row(2))
        c.put(1, row(1))  # refresh, not insert
        assert len(c) == 2 and c.stats.evictions == 0
        c.put(3, row(3))
        assert 2 not in c  # 1 was refreshed, 2 became LRU

    def test_zero_capacity_disables_storage(self):
        c = EmbeddingCache(0)
        c.put(1, row(1))
        assert len(c) == 0
        assert c.get(1) is None
        assert c.stats.misses == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            EmbeddingCache(-1)

    def test_clear_keeps_history(self):
        c = EmbeddingCache(4)
        c.put(1, row(1))
        c.get(1)
        c.clear()
        assert len(c) == 0
        assert c.stats.hits == 1


def filled(capacity, *, staleness_budget=0):
    c = EmbeddingCache(capacity, staleness_budget=staleness_budget)
    for k in range(1, capacity + 1):
        c.put(k, row(k))
    return c


class TestInvalidate:
    def test_flush(self):
        c = filled(4)
        assert c.invalidate(None) == 4
        assert len(c) == 0
        assert c.stats.invalidated == 4
        assert c.graph_generation == 1

    def test_scoped_drops_only_the_set(self):
        c = filled(6)
        assert c.invalidate(np.array([2, 5])) == 2
        assert [k for k in range(1, 7) if k in c] == [1, 3, 4, 6]
        assert c.stats.invalidated == 2
        assert c.graph_generation == 1

    def test_set_larger_than_cache(self):
        c = filled(6)
        assert c.invalidate(np.concatenate([[2, 5], np.arange(1000, 1018)])) == 2
        assert [k for k in range(1, 7) if k in c] == [1, 3, 4, 6]
        assert c.stats.invalidated == 2

    def test_absent_ids_touch_nothing(self):
        c = filled(6)
        assert c.invalidate(np.array([100, 200])) == 0
        assert len(c) == 6 and c.stats.invalidated == 0
        assert all(c.get(k) is not None for k in range(1, 7))
        assert c.stats.stale_hits == 0

    def test_empty_cache(self):
        c = EmbeddingCache(4)
        assert c.invalidate(np.arange(3)) == 0
        assert c.graph_generation == 1

    def test_budget_one_ages_then_drops(self):
        c = filled(6, staleness_budget=1)
        assert c.invalidate(np.array([3])) == 0
        assert 3 in c  # aged once: still within the budget
        np.testing.assert_array_equal(c.get(3), row(3))
        assert c.stats.stale_hits == 1
        assert c.invalidate(np.array([3])) == 1
        assert 3 not in c and len(c) == 5
        assert c.stats.invalidated == 1

    @pytest.mark.parametrize("budget", [0, 1])
    def test_survivors_keep_lru_order(self, budget):
        c = filled(6, staleness_budget=budget)
        c.get(1)  # recency order now 2, 3, 4, 5, 6, 1
        c.invalidate(np.array([3, 5]))
        survivors = [2, 4, 6, 1] if budget == 0 else [2, 3, 4, 5, 6, 1]
        for k in range(7, 7 + 6 - len(survivors)):
            c.put(k, row(k))  # refill without evicting
        assert c.stats.evictions == 0
        # each further insert evicts the least recent survivor, in order
        for i, victim in enumerate(survivors):
            assert victim in c
            c.put(100 + i, row(100 + i))
            assert victim not in c
