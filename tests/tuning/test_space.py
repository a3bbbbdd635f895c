"""ConfigSpace: enumeration, features, neighbourhood moves."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.platform.spec import ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L
from repro.tuning.space import ConfigSpace


class TestEnumeration:
    def test_every_config_valid(self):
        space = ConfigSpace(112)
        for n, s, t in space:
            assert n >= 1 and s >= 1 and t >= 1
            assert n * (s + t) <= 112
            assert s + t == 112 // n

    def test_known_sizes(self):
        """Our natural grid: 295 on 112 cores, 164 on 64 (the paper's own
        enumeration rule — 726/408 — is unpublished; see EXPERIMENTS.md)."""
        assert len(ConfigSpace(112)) == 295
        assert len(ConfigSpace(64)) == 164

    def test_for_platform(self):
        assert len(ConfigSpace.for_platform(ICE_LAKE_8380H)) == 295
        assert len(ConfigSpace.for_platform(SAPPHIRE_RAPIDS_6430L)) == 164

    def test_contains_and_index(self):
        space = ConfigSpace(16)
        cfg = space.configs[5]
        assert cfg in space
        assert space.index(cfg) == 5
        assert (99, 1, 1) not in space

    def test_custom_process_counts(self):
        space = ConfigSpace(16, process_counts=[2, 4])
        assert {n for n, _, _ in space} == {2, 4}

    def test_rejects_tiny_machine(self):
        with pytest.raises(ValueError):
            ConfigSpace(1)

    def test_paper_budget_fraction(self):
        space = ConfigSpace(112)
        assert space.paper_budget(0.05) == round(0.05 * 295)
        with pytest.raises(ValueError):
            space.paper_budget(0.0)

    def test_budget_floor(self):
        assert ConfigSpace(4).paper_budget(0.05) >= 3


class TestFeatures:
    def test_unit_cube(self):
        feats = ConfigSpace(64).features()
        assert feats.shape == (164, 2)
        assert feats.min() >= 0.0
        assert feats.max() <= 1.0

    def test_features_distinct(self):
        feats = ConfigSpace(64).features()
        assert len(np.unique(feats, axis=0)) == len(feats)

    def test_built_once_and_read_only(self):
        """Every tuner over a space shares one array, so none may write it."""
        space = ConfigSpace(64)
        feats = space.features()
        assert space.features() is feats
        with pytest.raises(ValueError):
            feats[0, 0] = 0.5

    def test_feature_semantics(self):
        space = ConfigSpace(64, process_counts=[1, 8])
        i = space.index((1, 4, 60))
        j = space.index((8, 4, 4))
        feats = space.features()
        assert feats[i, 0] == 0.0  # log2(1) = 0
        assert feats[j, 0] == 1.0  # max process count
        assert feats[i, 1] == pytest.approx(4 / 64)
        assert feats[j, 1] == pytest.approx(4 / 8)


class TestNeighbors:
    def test_split_moves(self):
        space = ConfigSpace(16)
        moves = space.neighbors((2, 4, 4))
        assert (2, 3, 5) in moves
        assert (2, 5, 3) in moves

    def test_process_moves_preserve_fraction(self):
        space = ConfigSpace(64)
        moves = space.neighbors((4, 8, 8))  # 50% sampling split
        by_n = {n: (s, t) for n, s, t in moves}
        assert 3 in by_n or 5 in by_n
        for n, (s, t) in by_n.items():
            assert abs(s / (s + t) - 0.5) < 0.2

    def test_all_neighbors_in_space(self):
        space = ConfigSpace(48)
        for cfg in space.configs[::7]:
            for move in space.neighbors(cfg):
                assert move in space

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            ConfigSpace(16).neighbors((99, 1, 1))

    @given(st.integers(min_value=8, max_value=128))
    @settings(max_examples=20, deadline=None)
    def test_property_space_is_connected_enough(self, cores):
        """Every config has at least one neighbour (SA can always move)."""
        space = ConfigSpace(cores)
        for cfg in space.configs[:: max(1, len(space) // 20)]:
            assert len(space.neighbors(cfg)) >= 1


class TestRandomConfig:
    def test_in_space(self):
        space = ConfigSpace(32)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert space.random_config(rng) in space


class TestBackendSpace:
    def _space(self, backends=("inline", "process")):
        from repro.tuning.space import BackendSpace

        return BackendSpace(ConfigSpace(16), backends=backends)

    def test_cross_product_size(self):
        base = ConfigSpace(16)
        space = self._space()
        assert len(space) == 2 * len(base)

    def test_configs_are_four_tuples(self):
        space = self._space()
        for cfg in space.configs[:: max(1, len(space) // 10)]:
            n, s, t, b = cfg
            assert (n, s, t) in space.base
            assert b in space.backends

    def test_index_roundtrip(self):
        space = self._space()
        for i in (0, len(space) // 2, len(space) - 1):
            assert space.index(space.configs[i]) == i

    def test_features_add_backend_column(self):
        space = self._space()
        feats = space.features()
        base_feats = space.base.features()
        assert feats.shape == (len(space), base_feats.shape[1] + 1)
        # backend column is the normalised categorical index
        assert set(np.unique(feats[:, -1])) == {0.0, 1.0}

    def test_neighbors_include_backend_flips(self):
        space = self._space()
        cfg = space.base.configs[0] + ("inline",)
        moves = space.neighbors(cfg)
        flips = {m[3] for m in moves if m[:3] == cfg[:3]}
        assert flips == {"process"}
        for m in moves:
            assert m in space

    def test_unknown_backend_rejected(self):
        from repro.tuning.space import BackendSpace

        with pytest.raises(ValueError, match="unknown backends"):
            BackendSpace(ConfigSpace(16), backends=("inline", "mpi"))

    def test_runtime_config_accepts_points(self):
        from repro.core.config import RuntimeConfig

        space = self._space()
        cfg = RuntimeConfig.from_tuple(space.configs[-1])
        assert cfg.backend == "process"

    def test_autotuner_searches_backends(self):
        """The tuner must be able to traverse the backend axis."""
        from repro.core.autotuner import OnlineAutoTuner

        space = self._space()
        tuner = OnlineAutoTuner(space, num_searches=6, seed=0)
        # fake objective: process is fastest, inline slowest
        cost = {"inline": 3.0, "process": 1.0}
        result = tuner.tune(lambda cfg: cost[cfg[3]] + 0.01 * cfg[0])
        assert len(result.history) == 6
        tried = {cfg[3] for cfg, _ in result.history}
        assert len(tried) >= 2  # the tuner explored the backend axis
        assert result.best_config[3] == "process"  # ... and found the cheapest

    def test_random_config_in_space(self):
        space = self._space()
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert space.random_config(rng) in space


class TestQueueDepthAxis:
    """BackendSpace with a searched queue_depth: 5-tuple points."""

    DEPTHS = (1, 2, 4)

    def _space(self):
        from repro.tuning.space import BackendSpace

        return BackendSpace(
            ConfigSpace(16), backends=("inline", "process"), queue_depths=self.DEPTHS
        )

    def test_cross_product_size(self):
        base = ConfigSpace(16)
        assert len(self._space()) == 2 * len(self.DEPTHS) * len(base)

    def test_configs_are_five_tuples(self):
        space = self._space()
        for cfg in space.configs[:: max(1, len(space) // 10)]:
            n, s, t, b, q = cfg
            assert (n, s, t) in space.base
            assert b in space.backends
            assert q in self.DEPTHS

    def test_runtime_config_roundtrip(self):
        from repro.core.config import RuntimeConfig

        space = self._space()
        cfg = RuntimeConfig.from_tuple(space.configs[-1])
        # a searched depth implies the overlap pipeline
        assert cfg.prefetch is True
        assert cfg.queue_depth == self.DEPTHS[-1]
        assert cfg.backend == "process"

    def test_features_add_depth_column(self):
        space = self._space()
        feats = space.features()
        base_cols = space.base.features().shape[1]
        assert feats.shape == (len(space), base_cols + 2)
        # log-scaled depth column: 1 -> 0, max -> 1
        assert set(np.round(np.unique(feats[:, -1]), 6)) == {0.0, 0.5, 1.0}

    def test_neighbors_move_one_depth_step(self):
        space = self._space()
        cfg = space.base.configs[0] + ("inline", 2)
        moves = space.neighbors(cfg)
        depth_moves = {m[4] for m in moves if m[:4] == cfg[:4]}
        assert depth_moves == {1, 4}
        for m in moves:
            assert m in space

    def test_index_roundtrip_and_random(self):
        space = self._space()
        rng = np.random.default_rng(0)
        for i in (0, len(space) // 2, len(space) - 1):
            assert space.index(space.configs[i]) == i
        for _ in range(10):
            assert space.random_config(rng) in space

    def test_rejects_bad_depths(self):
        from repro.tuning.space import BackendSpace

        with pytest.raises(ValueError):
            BackendSpace(ConfigSpace(16), queue_depths=(0, 2))
        with pytest.raises(ValueError, match="non-empty"):
            BackendSpace(ConfigSpace(16), queue_depths=())

    def test_autotuner_searches_depths(self):
        """The tuner traverses the queue-depth axis and finds the best."""
        from repro.core.autotuner import OnlineAutoTuner

        space = self._space()
        tuner = OnlineAutoTuner(space, num_searches=8, seed=0)
        # fake objective: deeper lookahead hides more sampling
        result = tuner.tune(lambda cfg: 3.0 / cfg[4] + 0.01 * cfg[0])
        tried = {cfg[4] for cfg, _ in result.history}
        assert len(tried) >= 2
        assert result.best_config[4] == max(self.DEPTHS)

    def test_default_backend_space_helper(self):
        from repro.platform import ICE_LAKE_8380H
        from repro.tuning.defaults import QUEUE_DEPTH_CHOICES, default_backend_space

        space = default_backend_space(ICE_LAKE_8380H)
        assert space.queue_depths == QUEUE_DEPTH_CHOICES
        n, s, t, b, q = space.configs[0]
        assert q in QUEUE_DEPTH_CHOICES
