"""Acquisition functions for minimisation."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from repro.bayesopt.acquisition import (
    ACQUISITIONS,
    _norm_pdf,
    expected_improvement,
    probability_of_improvement,
    upper_confidence_bound,
)


class TestExpectedImprovement:
    def test_prefers_lower_mean_at_equal_std(self):
        mean = np.array([1.0, 2.0])
        std = np.array([0.5, 0.5])
        ei = expected_improvement(mean, std, best=1.5)
        assert ei[0] > ei[1]

    def test_prefers_higher_std_at_equal_mean(self):
        """The exploration half of the explore/exploit balance (Sec. V-C)."""
        mean = np.array([2.0, 2.0])
        std = np.array([0.1, 1.0])
        ei = expected_improvement(mean, std, best=1.5)
        assert ei[1] > ei[0]

    def test_zero_std_no_improvement(self):
        ei = expected_improvement(np.array([2.0]), np.array([0.0]), best=1.0)
        assert ei[0] == 0.0

    def test_zero_std_certain_improvement(self):
        ei = expected_improvement(np.array([0.5]), np.array([0.0]), best=1.0, xi=0.0)
        assert ei[0] == pytest.approx(0.5)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        ei = expected_improvement(rng.standard_normal(50), rng.random(50), best=0.0)
        assert np.all(ei >= 0)

    def test_known_closed_form(self):
        """EI at mean==best, xi=0: std * phi(0) = std / sqrt(2 pi)."""
        std = 0.7
        ei = expected_improvement(np.array([1.0]), np.array([std]), best=1.0, xi=0.0)
        assert ei[0] == pytest.approx(std / np.sqrt(2 * np.pi), rel=1e-6)


class TestProbabilityOfImprovement:
    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(0)
        pi = probability_of_improvement(rng.standard_normal(50), rng.random(50), best=0.0)
        assert np.all((pi >= 0) & (pi <= 1))

    def test_half_at_mean_equals_threshold(self):
        pi = probability_of_improvement(np.array([1.0]), np.array([0.5]), best=1.0, xi=0.0)
        assert pi[0] == pytest.approx(0.5)

    def test_zero_std_cases(self):
        pi = probability_of_improvement(
            np.array([0.5, 2.0]), np.array([0.0, 0.0]), best=1.0, xi=0.0
        )
        assert pi[0] == pytest.approx(1.0)
        assert pi[1] == pytest.approx(0.0)


class TestUCB:
    def test_prefers_low_mean_and_high_std(self):
        scores = upper_confidence_bound(np.array([1.0, 1.0, 2.0]), np.array([0.1, 1.0, 1.0]))
        assert scores[1] > scores[0]
        assert scores[1] > scores[2]


class TestRegistry:
    def test_all_registered(self):
        assert set(ACQUISITIONS) == {"ei", "pi", "ucb"}


# ----------------------------------------------------------------------
# Bitwise oracle: the scipy.stats.norm forms the acquisitions replaced
# ----------------------------------------------------------------------
def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def oracle_ei(mean, std, best, xi=0.01):
    improvement = best - xi - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    ei = improvement * stats.norm.cdf(z) + std * stats.norm.pdf(z)
    return np.where(std > 0, ei, np.maximum(improvement, 0.0))


def oracle_pi(mean, std, best, xi=0.01):
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, (best - xi - mean) / std, np.where(mean < best - xi, np.inf, -np.inf))
    return stats.norm.cdf(z)


Z_EDGES = np.concatenate([
    np.linspace(-40.0, 40.0, 4001),
    [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
])


class TestBitwiseOracle:
    def test_normal_cdf_and_pdf_bit_equal_to_stats_norm(self):
        np.testing.assert_array_equal(bits(ndtr(Z_EDGES)), bits(stats.norm.cdf(Z_EDGES)))
        with np.errstate(over="ignore"):  # z**2 at +-1e300
            got, want = _norm_pdf(Z_EDGES), stats.norm.pdf(Z_EDGES)
        np.testing.assert_array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("fn, oracle", [
        (expected_improvement, oracle_ei),
        (probability_of_improvement, oracle_pi),
    ])
    def test_acquisition_bit_equal_to_stats_norm_form(self, fn, oracle):
        rng = np.random.default_rng(0)
        mean = np.concatenate([rng.standard_normal(500) * 3, [0.5, 2.0, 1.0, 1.0, 0.99]])
        std = np.concatenate([rng.random(500) * 2, [0.0, 0.0, 5e-324, 1e-300, 1e-20]])
        std[::7] = 0.0
        for best in (-1.0, 0.0, 1.0):
            with np.errstate(over="ignore"):  # tiny std: z overflows to +-inf
                got, want = fn(mean, std, best), oracle(mean, std, best)
            np.testing.assert_array_equal(bits(got), bits(want))
