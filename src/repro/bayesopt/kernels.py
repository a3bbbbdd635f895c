"""Covariance kernels for Gaussian-process regression.

Both kernels are stationary with a shared signal variance ``sigma2`` and
per-dimension (isotropic here) length scale ``ell``.  Inputs are expected
in a normalised [0, 1]^d cube (see :mod:`repro.bayesopt.space`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kernel", "RBF", "Matern52", "pairwise_sqdist"]


def pairwise_sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``a`` and ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    sq = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


class Kernel:
    """Base kernel with (signal variance, length scale) hyperparameters."""

    def __init__(self, sigma2: float = 1.0, ell: float = 0.3):
        if sigma2 <= 0 or ell <= 0:
            raise ValueError(f"sigma2 and ell must be > 0, got {sigma2}, {ell}")
        self.sigma2 = float(sigma2)
        self.ell = float(ell)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.from_sqdist(pairwise_sqdist(a, b))

    def from_sqdist(self, sq: np.ndarray) -> np.ndarray:  # pragma: no cover
        """Covariances from precomputed squared distances.

        The GP's hyperparameter grid evaluates many kernels on one input
        set, so it computes :func:`pairwise_sqdist` once and calls this.
        """
        raise NotImplementedError

    def with_params(self, sigma2: float, ell: float) -> "Kernel":
        return type(self)(sigma2=sigma2, ell=ell)

    def diag(self, X: np.ndarray) -> np.ndarray:
        """k(x, x) per row — constant ``sigma2`` for stationary kernels.

        Avoids materialising the full Gram matrix when only the prior
        variance is needed (the acquisition scan evaluates thousands of
        candidates).
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return np.full(len(X), self.sigma2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(sigma2={self.sigma2:.4g}, ell={self.ell:.4g})"


class RBF(Kernel):
    """Squared-exponential kernel ``sigma2 * exp(-r^2 / (2 ell^2))``."""

    def from_sqdist(self, sq):
        return self.sigma2 * np.exp(-0.5 * sq / self.ell**2)


class Matern52(Kernel):
    """Matérn nu=5/2: ``sigma2 (1 + z + z^2/3) exp(-z)``, ``z = sqrt(5) r / ell``.

    The default surrogate kernel: once-differentiable sample paths suit
    the piecewise-smooth epoch-time landscapes of Fig. 7 better than the
    infinitely smooth RBF.
    """

    def from_sqdist(self, sq):
        z = np.sqrt(5.0) * np.sqrt(sq) / self.ell
        return self.sigma2 * (1.0 + z + z * z / 3.0) * np.exp(-z)
