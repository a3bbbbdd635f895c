"""Online auto-tuner (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.autotuner import OnlineAutoTuner
from repro.core.config import RuntimeConfig
from repro.experiments.setups import ExperimentSetup, build_runtime
from repro.platform.simulator import SimulatedRuntime
from repro.tuning.search import RandomSearch
from repro.tuning.space import ConfigSpace


@pytest.fixture
def runtime(dgl_cost_model):
    return SimulatedRuntime(dgl_cost_model, noise=0.015, seed=0)


@pytest.fixture
def space():
    return ConfigSpace(112)


class TestAlgorithm1:
    def test_runs_exactly_num_searches(self, runtime, space):
        tuner = OnlineAutoTuner(space, num_searches=10, seed=0)
        res = tuner.tune(runtime.measure_epoch)
        assert res.num_searches == 10
        assert len(res.history) == 10

    def test_stepwise_interface(self, runtime, space):
        tuner = OnlineAutoTuner(space, num_searches=5, seed=0)
        while not tuner.done:
            cfg = tuner.propose()
            assert cfg in space
            tuner.observe(cfg, runtime.measure_epoch(cfg))
        assert tuner.get_opt() in space

    def test_get_opt_is_best_observed(self, runtime, space):
        tuner = OnlineAutoTuner(space, num_searches=8, seed=1)
        res = tuner.tune(runtime.measure_epoch)
        best_in_history = min(res.history, key=lambda cv: cv[1])[0]
        assert res.best_config == best_in_history

    def test_get_opt_before_observations_raises(self, space):
        with pytest.raises(RuntimeError):
            OnlineAutoTuner(space, num_searches=3).get_opt()

    def test_no_setup_specific_inputs(self, space):
        """Paper: the tuner takes only num_searches — no platform/model info."""
        tuner = OnlineAutoTuner(space, num_searches=5)
        assert tuner.num_searches == 5

    def test_rejects_bad_budget(self, space):
        with pytest.raises(ValueError):
            OnlineAutoTuner(space, num_searches=0)


class TestTunerQuality:
    def test_near_optimal_with_5pct_budget(self, runtime, space):
        """Headline claim: >= 90% of optimal exploring ~5% of the space."""
        best_true, _ = runtime.argo_best_epoch_time(112, space)
        tuner = OnlineAutoTuner(space, space.paper_budget(0.05), seed=2)
        res = tuner.tune(runtime.measure_epoch)
        found = runtime.true_epoch_time(res.best_config)
        assert best_true / found >= 0.90

    def test_beats_random_on_average(self, runtime, space):
        """Tables IV/V pattern: the auto-tuner outperforms an equal-budget
        random strategy on almost every task."""
        budget = space.paper_budget(0.05)
        tuner_scores, random_scores = [], []
        for seed in range(4):
            tuner = OnlineAutoTuner(space, budget, seed=seed)
            res = tuner.tune(runtime.measure_epoch)
            tuner_scores.append(runtime.true_epoch_time(res.best_config))
            rnd = RandomSearch().run(runtime.measure_epoch, space, budget, seed=seed)
            random_scores.append(runtime.true_epoch_time(rnd.best_config))
        assert np.mean(tuner_scores) <= np.mean(random_scores) * 1.02

    def test_deterministic_in_seed(self, dgl_cost_model, space):
        def run(seed):
            rt = SimulatedRuntime(dgl_cost_model, noise=0.015, seed=42)
            tuner = OnlineAutoTuner(space, 8, seed=seed)
            return tuner.tune(rt.measure_epoch).history

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestOverheadAccounting:
    def test_overhead_measured_and_small(self, runtime, space):
        """Paper Sec. VI-D: tuner cost is seconds, not minutes."""
        tuner = OnlineAutoTuner(space, space.paper_budget(0.05), seed=0)
        res = tuner.tune(runtime.measure_epoch)
        assert 0 < res.overhead_seconds < 10.0

    def test_memory_estimate_tens_of_mb_max(self, runtime, space):
        """Paper reports 10-20 MB extra; our estimate must be of that
        order or smaller."""
        tuner = OnlineAutoTuner(space, space.paper_budget(0.05), seed=0)
        res = tuner.tune(runtime.measure_epoch)
        assert res.surrogate_memory_bytes < 30 * 1024 * 1024

    def test_best_runtime_config_type(self, runtime, space):
        tuner = OnlineAutoTuner(space, 5, seed=0)
        tuner.tune(runtime.measure_epoch)
        assert isinstance(tuner.best_runtime_config(), RuntimeConfig)


# Trial sequences pinned from the textbook GP pipeline (per-kernel Gram
# matrices through scipy.linalg.cholesky/cho_solve, stats.norm EI): any
# change to the surrogate's arithmetic must keep every proposal and the
# best observation bit-identical, which is what keeps the ledger's
# core.tuned_over_optimal an exact-repeat counter.  The simulated runtime
# is fitted to the real sampler's measured workload, so the pins also
# follow the sampler's RNG stream: they were re-pinned once, when
# per-winner (Floyd) sampling replaced the per-candidate random keys.
TUNE_GOLDENS = {
    ("icelake", 0): (
        "0x1.49d24b91f468fp+3",
        [(2, 4, 52), (4, 17, 11), (1, 105, 7), (1, 33, 79), (1, 46, 66), (8, 3, 11), (8, 9, 5),
         (7, 7, 9), (6, 1, 17), (8, 5, 9), (7, 15, 1), (6, 10, 8), (8, 7, 7), (4, 11, 17),
         (8, 4, 10)],
    ),
    ("icelake", 1): (
        "0x1.49d24b91f468fp+3",
        [(6, 17, 1), (1, 43, 69), (6, 2, 16), (7, 9, 7), (1, 68, 44), (8, 6, 8), (6, 8, 10),
         (7, 7, 9), (8, 7, 7), (7, 8, 8), (8, 4, 10), (7, 5, 11), (8, 5, 9), (4, 12, 16),
         (8, 3, 11)],
    ),
    ("icelake", 2): (
        "0x1.49d24b91f468fp+3",
        [(2, 55, 1), (1, 29, 83), (2, 3, 53), (7, 2, 14), (1, 4, 108), (5, 1, 21), (8, 4, 10),
         (8, 8, 6), (8, 6, 8), (8, 13, 1), (8, 1, 13), (6, 6, 12), (7, 4, 12), (7, 5, 11),
         (3, 13, 24)],
    ),
    ("sapphire", 0): (
        "0x1.6bd22cc6bdd04p+3",
        [(1, 39, 25), (2, 16, 16), (3, 20, 1), (2, 14, 18), (3, 9, 12), (4, 4, 12), (5, 5, 7),
         (8, 1, 7)],
    ),
    ("sapphire", 1): (
        "0x1.5d74e641cb587p+3",
        [(2, 9, 23), (1, 63, 1), (1, 20, 44), (2, 1, 31), (2, 13, 19), (3, 8, 13), (7, 4, 5),
         (8, 6, 2)],
    ),
    ("sapphire", 2): (
        "0x1.5d74e641cb587p+3",
        [(1, 11, 53), (1, 31, 33), (7, 4, 5), (8, 6, 2), (8, 1, 7), (5, 7, 5), (7, 5, 4),
         (5, 5, 7)],
    ),
}


class TestTrialSequenceGoldens:
    @pytest.mark.parametrize("platform, seed", sorted(TUNE_GOLDENS))
    def test_history_and_best_repeat_exactly(self, platform, seed):
        rt, space = build_runtime(
            ExperimentSetup("neighbor-sage", "ogbn-products", platform, "dgl"), seed=0
        )
        res = OnlineAutoTuner(space, space.paper_budget(), seed=seed).tune(rt.measure_epoch)
        best_hex, configs = TUNE_GOLDENS[platform, seed]
        assert [cfg for cfg, _ in res.history] == configs
        assert float.hex(res.best_observed) == best_hex
