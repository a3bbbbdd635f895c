"""Gaussian-process regression correctness."""

import numpy as np
import pytest
from scipy import linalg

from repro.bayesopt.gp import GaussianProcessRegressor
from repro.bayesopt.kernels import RBF, Kernel, Matern52, pairwise_sqdist
from repro.tuning.space import ConfigSpace


def toy_data(n=12, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 1))
    y = np.sin(6 * X[:, 0]) + 0.01 * rng.standard_normal(n)
    return X, y


class TestFitPredict:
    def test_interpolates_training_points(self):
        X, y = toy_data()
        gp = GaussianProcessRegressor(noise=1e-6, optimize_hypers=False, kernel=RBF(ell=0.2))
        gp.fit(X, y)
        mean, std = gp.predict(X)
        np.testing.assert_allclose(mean, y, atol=5e-2)

    def test_uncertainty_grows_away_from_data(self):
        X, y = toy_data()
        gp = GaussianProcessRegressor(kernel=Matern52(ell=0.15), optimize_hypers=False)
        gp.fit(X, y)
        _, std_near = gp.predict(X[:1])
        _, std_far = gp.predict(np.array([[5.0]]))
        assert std_far[0] > std_near[0]

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().predict(np.zeros((1, 1)))

    def test_mean_only_mode(self):
        X, y = toy_data()
        gp = GaussianProcessRegressor().fit(X, y)
        mean = gp.predict(X, return_std=False)
        assert mean.shape == (len(X),)

    def test_scale_invariance_through_standardisation(self):
        """Predictions must track targets scaled by 1000x (epoch times
        range from ~1s to ~400s across the paper's tasks)."""
        X, y = toy_data()
        gp1 = GaussianProcessRegressor().fit(X, y)
        gp2 = GaussianProcessRegressor().fit(X, 1000 * y)
        m1, _ = gp1.predict(X)
        m2, _ = gp2.predict(X)
        np.testing.assert_allclose(m2 / 1000, m1, atol=1e-2)

    def test_constant_targets_handled(self):
        X, _ = toy_data()
        gp = GaussianProcessRegressor().fit(X, np.full(len(X), 3.0))
        mean, std = gp.predict(X)
        np.testing.assert_allclose(mean, 3.0, atol=1e-6)

    def test_input_validation(self):
        gp = GaussianProcessRegressor()
        with pytest.raises(ValueError):
            gp.fit(np.zeros((3, 1)), np.zeros(2))
        with pytest.raises(ValueError):
            gp.fit(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            GaussianProcessRegressor(noise=0.0)


class TestHyperparameterFitting:
    def test_mle_improves_lml(self):
        X, y = toy_data(n=20)
        gp = GaussianProcessRegressor(kernel=Matern52(ell=2.0), optimize_hypers=True)
        y_std = (y - y.mean()) / y.std()
        before = gp.log_marginal_likelihood(X, y_std, Matern52(ell=2.0))
        gp.fit(X, y)
        after = gp.log_marginal_likelihood(X, y_std, gp.kernel)
        assert after >= before

    def test_lml_finite_for_reasonable_kernels(self):
        X, y = toy_data()
        gp = GaussianProcessRegressor()
        y_std = (y - y.mean()) / y.std()
        assert np.isfinite(gp.log_marginal_likelihood(X, y_std, Matern52(ell=0.3)))

    def test_fit_learns_short_lengthscale_for_wiggly_data(self):
        rng = np.random.default_rng(0)
        X = rng.random((30, 1))
        y = np.sin(40 * X[:, 0])
        gp = GaussianProcessRegressor(optimize_hypers=True)
        gp.fit(X, y)
        assert gp.kernel.ell < 0.5


class TestPosteriorMath:
    def test_matches_direct_formula(self):
        """Cholesky pipeline must equal the textbook closed form."""
        X, y = toy_data(n=8)
        kern = RBF(sigma2=1.0, ell=0.3)
        noise = 1e-3
        gp = GaussianProcessRegressor(kernel=kern, noise=noise, optimize_hypers=False)
        gp.fit(X, y)
        Xq = np.linspace(0, 1, 5)[:, None]
        mean, _ = gp.predict(Xq)

        y_std = (y - y.mean()) / y.std()
        K = kern(X, X) + (noise + 1e-10) * np.eye(len(X))
        direct = kern(Xq, X) @ np.linalg.solve(K, y_std) * y.std() + y.mean()
        np.testing.assert_allclose(mean, direct, rtol=1e-8)


# ----------------------------------------------------------------------
# Bitwise oracle: the textbook pipeline (per-kernel Gram matrix, then the
# scipy.linalg.cholesky / cho_solve wrappers), which the GP's shared
# distance matrix and direct LAPACK calls must reproduce bit for bit.
# ----------------------------------------------------------------------
def oracle_gram(kernel, a, b):
    sq = pairwise_sqdist(a, b)
    if isinstance(kernel, Matern52):
        r = np.sqrt(sq)
        z = np.sqrt(5.0) * r / kernel.ell
        return kernel.sigma2 * (1.0 + z + z * z / 3.0) * np.exp(-z)
    return kernel.sigma2 * np.exp(-0.5 * sq / kernel.ell**2)


def oracle_lml(X, y_std, kernel, noise):
    n = len(X)
    K = oracle_gram(kernel, X, X) + (noise + 1e-10) * np.eye(n)
    try:
        L = linalg.cholesky(K, lower=True)
    except linalg.LinAlgError:
        return -np.inf
    alpha = linalg.cho_solve((L, True), y_std)
    return float(-0.5 * y_std @ alpha - np.log(np.diag(L)).sum() - 0.5 * n * np.log(2 * np.pi))


def oracle_fit(X, y_std, kernel, noise):
    """Grid + refinement search; returns (winner, every kernel tried)."""
    tried = []
    best_lml, best = -np.inf, kernel
    for s2 in [0.25, 1.0, 4.0]:
        for ell in np.geomspace(0.05, 2.0, 8):
            k = kernel.with_params(s2, float(ell))
            tried.append(k)
            lml = oracle_lml(X, y_std, k, noise)
            if lml > best_lml:
                best_lml, best = lml, k
    for ell in best.ell * np.array([0.7, 0.85, 1.18, 1.43]):
        k = best.with_params(best.sigma2, float(ell))
        tried.append(k)
        lml = oracle_lml(X, y_std, k, noise)
        if lml > best_lml:
            best_lml, best = lml, k
    return best, tried


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def tuner_points(n, seed):
    """``n`` rows of a real tuner feature space, with duplicated rows."""
    feats = ConfigSpace(112).features()
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(feats), size=n, replace=False)
    idx[-1] = idx[0]  # a repeated configuration
    y = rng.random(n) * 10 + 5
    return feats[idx], (y - y.mean()) / y.std(), y


KERNELS = [Matern52, RBF]


class TestBitwiseOracle:
    @pytest.mark.parametrize("kernel_cls", KERNELS)
    @pytest.mark.parametrize("n", range(3, 16))
    def test_lml_bit_equal_on_every_grid_kernel(self, kernel_cls, n):
        X, y_std, _ = tuner_points(n, seed=n)
        for noise in (1e-4, 1e-3):
            gp = GaussianProcessRegressor(kernel_cls(), noise=noise)
            _, tried = oracle_fit(X, y_std, kernel_cls(), noise)
            assert len(tried) == 28
            for k in tried:
                got = gp.log_marginal_likelihood(X, y_std, k)
                assert bits(got) == bits(oracle_lml(X, y_std, k, noise)), (k, n, noise)

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    @pytest.mark.parametrize("n", range(3, 16))
    def test_fit_picks_same_kernel_with_bit_equal_factors(self, kernel_cls, n):
        X, y_std, y = tuner_points(n, seed=100 + n)
        noise = 1e-3
        gp = GaussianProcessRegressor(kernel_cls(), noise=noise).fit(X, y)
        best, _ = oracle_fit(X, y_std, kernel_cls(), noise)
        assert type(gp.kernel) is kernel_cls
        assert (gp.kernel.sigma2, gp.kernel.ell) == (best.sigma2, best.ell)
        K = oracle_gram(best, X, X) + (noise + 1e-10) * np.eye(n)
        L = linalg.cholesky(K, lower=True)
        alpha = linalg.cho_solve((L, True), y_std)
        np.testing.assert_array_equal(bits(gp._L), bits(L))
        np.testing.assert_array_equal(bits(gp._alpha), bits(alpha))

    @pytest.mark.parametrize("kernel_cls", KERNELS)
    def test_kernel_call_bit_equal_to_textbook_gram(self, kernel_cls):
        rng = np.random.default_rng(0)
        a, b = rng.random((7, 2)), rng.random((5, 2))
        k = kernel_cls(sigma2=1.7, ell=0.23)
        np.testing.assert_array_equal(bits(k(a, b)), bits(oracle_gram(k, a, b)))

    def test_non_positive_definite_gram_is_minus_inf(self):
        class Anticorrelated(Kernel):
            def from_sqdist(self, sq):
                return np.full_like(sq, -self.sigma2)

        X, y_std, y = tuner_points(6, seed=0)
        gp = GaussianProcessRegressor(Anticorrelated(), optimize_hypers=False)
        assert gp.log_marginal_likelihood(X, y_std, Anticorrelated()) == -np.inf
        with pytest.raises(linalg.LinAlgError):
            linalg.cholesky(Anticorrelated()(X, X) + 1e-4 * np.eye(6), lower=True)
        with pytest.raises(linalg.LinAlgError):
            gp.fit(X, y)
