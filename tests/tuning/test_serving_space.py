"""ServingSpace: enumeration, features, neighbours, SLO objective, tuner."""

import numpy as np
import pytest

from repro.core.autotuner import OnlineAutoTuner
from repro.tuning.serving import ServingSpace, slo_objective


class FakeReport:
    def __init__(self, p99_ms, throughput_rps):
        self.p99_ms = p99_ms
        self.throughput_rps = throughput_rps


class TestSpace:
    def test_enumeration_is_the_cross_product(self):
        space = ServingSpace(
            workers=(1, 2), max_batches=(1, 4), max_waits_ms=(0.0, 2.0),
            cache_sizes=(0, 128),
        )
        assert len(space) == 16
        assert (2, 4, 2.0, 128) in space
        assert (3, 4, 2.0, 128) not in space
        cfg = (1, 4, 0.0, 128)
        assert space.configs[space.index(cfg)] == cfg
        # one point per (workers, batch, wait, cache)
        assert len(ServingSpace().configs[0]) == 4

    def test_axes_deduped_and_sorted(self):
        space = ServingSpace(workers=(2, 1, 2), max_batches=(8, 1))
        assert space.workers == (1, 2)
        assert space.max_batches == (1, 8)

    def test_single_point_axes(self):
        space = ServingSpace(
            workers=(1,), max_batches=(1,), max_waits_ms=(0.0,), cache_sizes=(0,),
        )
        assert space.configs == [(1, 1, 0.0, 0)]
        assert space.features().tolist() == [[0.0, 0.0, 0.0, 0.0]]
        assert space.neighbors((1, 1, 0.0, 0)) == []

    def test_zero_only_allowed_where_meaningful(self):
        ServingSpace(max_waits_ms=(0.0,), cache_sizes=(0,))  # fine
        with pytest.raises(ValueError, match="workers"):
            ServingSpace(workers=(0, 1))
        with pytest.raises(ValueError, match="max_batches"):
            ServingSpace(max_batches=(0,))
        with pytest.raises(ValueError, match="cache_sizes"):
            ServingSpace(cache_sizes=())

    def test_features_normalised_unit_cube(self):
        space = ServingSpace()
        feats = space.features()
        assert feats.shape == (len(space), 4)
        assert feats.min() >= 0.0 and feats.max() <= 1.0
        # distinct configs map to distinct feature rows
        assert len({tuple(r) for r in np.round(feats, 12)}) == len(space)
        # every axis spans its grid
        assert (feats.min(axis=0) == 0.0).all() and (feats.max(axis=0) == 1.0).all()

    def test_neighbors_single_axis_steps(self):
        space = ServingSpace(
            workers=(1, 2), max_batches=(1, 2, 4), max_waits_ms=(1.0, 2.0),
            cache_sizes=(0, 64),
        )
        cfg = (1, 2, 1.0, 0)
        neigh = space.neighbors(cfg)
        assert (2, 2, 1.0, 0) in neigh
        assert (1, 1, 1.0, 0) in neigh
        assert (1, 4, 1.0, 0) in neigh
        assert (1, 2, 2.0, 0) in neigh
        assert (1, 2, 1.0, 64) in neigh
        # one-step only: batch 1 -> 4 must pass through 2
        assert (2, 4, 1.0, 0) not in neigh
        assert len(neigh) == 5
        assert all(sum(a != b for a, b in zip(n, cfg)) == 1 for n in neigh)
        with pytest.raises(KeyError):
            space.neighbors((9, 9, 9.0, 9))

    def test_random_config_in_space(self):
        space = ServingSpace()
        rng = np.random.default_rng(0)
        assert all(space.random_config(rng) in space for _ in range(20))

    def test_paper_budget_floor(self):
        assert ServingSpace(
            workers=(1,), max_batches=(1,), max_waits_ms=(0.0,), cache_sizes=(0,),
        ).paper_budget() == 3


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


class TestTunerIntegration:
    def test_bo_autotuner_drives_serving_space(self):
        """The existing OnlineAutoTuner searches the serving space
        unchanged and recovers a known-good region of a synthetic
        latency model."""
        space = ServingSpace(
            workers=(1, 2), max_batches=(1, 4, 16), max_waits_ms=(0.5, 8.0),
            cache_sizes=(0, 1024),
        )

        def objective(cfg):
            workers, max_batch, wait_ms, cache = cfg
            # synthetic but shaped like serving: batching + cache raise
            # throughput, batching and waiting raise the tail
            throughput = (
                50.0 * workers * np.log2(max_batch + 1) * (1.5 if cache else 1.0)
            )
            p99 = 2.0 + wait_ms + 0.3 * max_batch
            return slo_objective(
                FakeReport(p99_ms=p99, throughput_rps=throughput), slo_ms=10.0
            )

        tuner = OnlineAutoTuner(space, num_searches=len(space), seed=0)
        result = tuner.tune(objective)
        assert result.best_config in space
        scores = {cfg: objective(cfg) for cfg in space}
        assert result.best_observed == pytest.approx(min(scores.values()))
        # the exhaustive-budget search must find the optimum's score
        assert objective(result.best_config) == pytest.approx(min(scores.values()))
        # the synthetic optimum: the biggest batch the SLO still admits
        assert result.best_config == (2, 16, 0.5, 1024)
