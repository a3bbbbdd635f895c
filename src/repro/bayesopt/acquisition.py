"""Acquisition functions for minimisation.

All functions take posterior ``(mean, std)`` arrays and the incumbent
best observation, returning scores where *larger is better* (the
optimizer picks the argmax).  Expected Improvement is the paper
auto-tuner's default: it balances exploring high-variance regions with
exploiting low-mean ones (paper Sec. V-C).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "expected_improvement",
    "probability_of_improvement",
    "upper_confidence_bound",
    "ACQUISITIONS",
]

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal density, the expression ``scipy.stats.norm.pdf`` evaluates."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI for minimisation: ``E[max(best - xi - Y, 0)]``."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    improvement = best - xi - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, improvement / std, 0.0)
    ei = improvement * ndtr(z) + std * _norm_pdf(z)
    # deterministic points (std == 0) improve only if strictly better
    return np.where(std > 0, ei, np.maximum(improvement, 0.0))


def probability_of_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """PI for minimisation: ``P(Y < best - xi)``."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(std > 0, (best - xi - mean) / std, np.where(mean < best - xi, np.inf, -np.inf))
    return ndtr(z)


def upper_confidence_bound(
    mean: np.ndarray, std: np.ndarray, best: float | None = None, kappa: float = 1.8
) -> np.ndarray:
    """Negated lower confidence bound (for minimisation): ``-(mean - kappa std)``."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    return -(mean - kappa * std)


ACQUISITIONS = {
    "ei": expected_improvement,
    "pi": probability_of_improvement,
    "ucb": upper_confidence_bound,
}
