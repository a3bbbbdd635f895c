"""Gaussian-process regression with Cholesky algebra and MLE fitting.

The standard GP toolbox (Rasmussen & Williams ch. 2): given training data
``(X, y)`` and a kernel ``k``,

* posterior mean   ``m(x*) = k*^T (K + s_n I)^-1 y``
* posterior var    ``v(x*) = k(x*,x*) - k*^T (K + s_n I)^-1 k*``
* log marginal likelihood for hyperparameter selection.

Targets are standardised internally (zero mean, unit variance) so kernel
hyperparameter defaults are scale-free — epoch times ranging from 1 to
400 seconds across experiments would otherwise need per-task priors.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from repro.bayesopt.kernels import Kernel, Matern52, pairwise_sqdist

__all__ = ["GaussianProcessRegressor"]

#: the hyperparameter grid ``_fit_hypers`` scans, then its ``ell`` refinement
_SIGMA2_GRID = (0.25, 1.0, 4.0)
_ELL_GRID = np.geomspace(0.05, 2.0, 8)
_ELL_REFINE = np.array([0.7, 0.85, 1.18, 1.43])
_LOG_2PI = np.log(2 * np.pi)

# The Cholesky factor/solve LAPACK routines, called directly: the same
# ``potrf(lower=True, clean=True)`` / ``potrs(lower=True)`` calls that
# ``linalg.cholesky`` / ``linalg.cho_solve`` make, without their per-call
# validation and batching wrappers, which cost more than an order-15
# factorisation itself.
_potrf, _potrs = linalg.get_lapack_funcs(("potrf", "potrs"), (np.empty(0),))


def _lml(kernel: Kernel, sq: np.ndarray, jitter: np.ndarray, y_std: np.ndarray) -> float:
    """LML of ``y_std`` under ``kernel`` at squared distances ``sq``."""
    L, info = _potrf(kernel.from_sqdist(sq) + jitter, lower=True, clean=True)
    if info != 0:
        return -np.inf
    alpha, _ = _potrs(L, y_std, lower=True)
    return float(-0.5 * y_std @ alpha - np.log(L.diagonal()).sum() - 0.5 * len(sq) * _LOG_2PI)


class GaussianProcessRegressor:
    """Exact GP regression.

    Parameters
    ----------
    kernel:
        Covariance function (default Matérn-5/2).
    noise:
        Observation noise variance (in *standardised* target units).
    optimize_hypers:
        If True, ``fit`` maximises the log marginal likelihood over
        (sigma2, ell) on a small log-grid with local refinement — robust,
        derivative-free, and fast for the few dozen points the online
        auto-tuner collects.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        *,
        noise: float = 1e-4,
        optimize_hypers: bool = True,
    ):
        if noise <= 0:
            raise ValueError(f"noise must be > 0, got {noise}")
        self.kernel = kernel if kernel is not None else Matern52()
        self.noise = float(noise)
        self.optimize_hypers = bool(optimize_hypers)
        self._X: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._L: np.ndarray | None = None
        self._y_mean = 0.0
        self._y_std = 1.0

    # ------------------------------------------------------------------
    def _standardise(self, y: np.ndarray) -> np.ndarray:
        self._y_mean = float(y.mean())
        self._y_std = float(y.std())
        if self._y_std < 1e-12:
            self._y_std = 1.0
        return (y - self._y_mean) / self._y_std

    def _jitter(self, n: int) -> np.ndarray:
        return (self.noise + 1e-10) * np.eye(n)

    def log_marginal_likelihood(self, X: np.ndarray, y_std: np.ndarray, kernel: Kernel) -> float:
        """LML of standardised targets under ``kernel`` (jittered Cholesky)."""
        return _lml(kernel, pairwise_sqdist(X, X), self._jitter(len(X)), y_std)

    def _fit_hypers(self, sq: np.ndarray, jitter: np.ndarray, y_std: np.ndarray) -> Kernel:
        """Grid + refinement search over (sigma2, ell) maximising the LML.

        All 28 candidate kernels (3 ``sigma2`` x 8 ``ell`` on a log grid,
        then 4 ``ell`` refinements around the winner) are evaluated on the
        one squared-distance matrix ``sq`` and one ``jitter`` diagonal the
        caller also reuses for its final factorisation, so a candidate
        costs one elementwise kernel pass and one order-n ``potrf``/
        ``potrs``.  A whole fit at the tuner's budget (n = 15) takes
        about 0.9 ms on a 2-core x86 Xeon VM (the ledger's
        ``bayesopt.gp_fit_ms``).
        """
        best_lml, best_kernel = -np.inf, self.kernel
        for s2 in _SIGMA2_GRID:
            for ell in _ELL_GRID:
                k = self.kernel.with_params(s2, float(ell))
                lml = _lml(k, sq, jitter, y_std)
                if lml > best_lml:
                    best_lml, best_kernel = lml, k
        # one refinement pass around the winner
        for ell in best_kernel.ell * _ELL_REFINE:
            k = best_kernel.with_params(best_kernel.sigma2, float(ell))
            lml = _lml(k, sq, jitter, y_std)
            if lml > best_lml:
                best_lml, best_kernel = lml, k
        return best_kernel

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcessRegressor":
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(X) != len(y):
            raise ValueError(f"X ({len(X)}) and y ({len(y)}) length mismatch")
        if len(X) == 0:
            raise ValueError("cannot fit a GP on zero observations")
        y_std = self._standardise(y)
        sq = pairwise_sqdist(X, X)
        jitter = self._jitter(len(X))
        if self.optimize_hypers and len(X) >= 3:
            self.kernel = self._fit_hypers(sq, jitter, y_std)
        L, info = _potrf(self.kernel.from_sqdist(sq) + jitter, lower=True, clean=True)
        if info != 0:
            raise linalg.LinAlgError(f"kernel matrix not positive definite (potrf info={info})")
        self._L = L
        self._alpha, _ = _potrs(L, y_std, lower=True)
        self._X = X
        return self

    def predict(self, Xq: np.ndarray, return_std: bool = True):
        """Posterior mean (and std) at query points, in original units."""
        if self._X is None:
            raise RuntimeError("predict() called before fit()")
        Xq = np.atleast_2d(np.asarray(Xq, dtype=np.float64))
        Ks = self.kernel(Xq, self._X)
        mean_std_units = Ks @ self._alpha
        mean = mean_std_units * self._y_std + self._y_mean
        if not return_std:
            return mean
        v = linalg.solve_triangular(self._L, Ks.T, lower=True)
        var = np.clip(self.kernel.diag(Xq) - (v * v).sum(axis=0), 0.0, None)
        std = np.sqrt(var + self.noise) * self._y_std
        return mean, std
