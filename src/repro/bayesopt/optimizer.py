"""Ask/tell Bayesian optimizer over a finite candidate set.

The runtime-configuration space is small and discrete (a few hundred
``(n, s, t)`` triples), so the acquisition function is maximised exactly
by scoring every candidate not yet evaluated — no inner optimisation loop
needed.  Each ``ask`` refits the GP, whose hyperparameter grid scores 28
kernels on one shared squared-distance matrix with direct LAPACK
``potrf``/``potrs`` calls, then runs one posterior scan: the whole
``tell -> refit -> ask`` cycle averages about 0.7 ms per search at the
paper budget on a 2-core x86 Xeon VM (the ledger's
``core.tuner_ms_per_search``; the paper reports <1% tuning overhead,
Sec. VI-D).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.bayesopt.acquisition import ACQUISITIONS
from repro.bayesopt.gp import GaussianProcessRegressor
from repro.bayesopt.kernels import Matern52
from repro.utils.rng import as_generator

__all__ = ["BayesianOptimizer"]


class BayesianOptimizer:
    """Minimise a black-box function over a finite set of feature points.

    Parameters
    ----------
    candidates:
        ``(N, d)`` array of feature vectors, ideally normalised to
        ``[0, 1]^d`` (see :meth:`repro.tuning.space.ConfigSpace.features`).
    n_initial:
        Number of random evaluations before the surrogate is trusted.
    acquisition:
        ``"ei"`` (default), ``"pi"`` or ``"ucb"``.
    rng:
        Seed or generator for the initial design and tie-breaking.
    """

    def __init__(
        self,
        candidates: np.ndarray,
        *,
        n_initial: int = 5,
        acquisition: str = "ei",
        noise: float = 1e-3,
        rng=None,
    ):
        self.candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
        if len(self.candidates) == 0:
            raise ValueError("candidate set must not be empty")
        if acquisition not in ACQUISITIONS:
            raise ValueError(f"unknown acquisition {acquisition!r}; options: {sorted(ACQUISITIONS)}")
        self.acquisition = ACQUISITIONS[acquisition]
        self.n_initial = max(1, int(n_initial))
        self.rng = as_generator(rng)
        self.gp = GaussianProcessRegressor(kernel=Matern52(), noise=noise)
        self.X_observed: list[int] = []  # candidate indices
        self.y_observed: list[float] = []
        # pre-shuffled initial design (without replacement)
        self._init_order = list(
            self.rng.permutation(len(self.candidates))[: min(self.n_initial, len(self.candidates))]
        )

    # ------------------------------------------------------------------
    @property
    def num_observations(self) -> int:
        return len(self.y_observed)

    @property
    def best_index(self) -> int:
        """Candidate index of the best (lowest) observation so far."""
        if not self.y_observed:
            raise RuntimeError("no observations yet")
        return self.X_observed[int(np.argmin(self.y_observed))]

    @property
    def best_value(self) -> float:
        if not self.y_observed:
            raise RuntimeError("no observations yet")
        return float(np.min(self.y_observed))

    # ------------------------------------------------------------------
    def ask(self) -> int:
        """Index of the next candidate to evaluate."""
        seen = set(self.X_observed)
        unseen = [i for i in range(len(self.candidates)) if i not in seen]
        if not unseen:
            return self.best_index  # space exhausted: re-use the best
        # initial random design
        for idx in self._init_order:
            if idx not in seen:
                if self.num_observations < self.n_initial:
                    return int(idx)
                break
        if self.num_observations < self.n_initial:
            return int(unseen[0])
        # surrogate-guided choice
        self.gp.fit(self.candidates[self.X_observed], np.asarray(self.y_observed))
        mean, std = self.gp.predict(self.candidates[unseen])
        scores = self.acquisition(mean, std, self.best_value)
        order = np.argsort(scores)[::-1]
        return int(unseen[int(order[0])])

    def tell(self, index: int, value: float) -> None:
        """Record an observation for candidate ``index``."""
        if not 0 <= index < len(self.candidates):
            raise IndexError(f"candidate index {index} out of range")
        if not np.isfinite(value):
            raise ValueError(f"observation must be finite, got {value}")
        self.X_observed.append(int(index))
        self.y_observed.append(float(value))

    # ------------------------------------------------------------------
    def minimize(self, objective: Callable[[int], float], budget: int) -> tuple[int, float]:
        """Run ``budget`` ask/tell rounds; returns (best index, best value)."""
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        for _ in range(budget):
            idx = self.ask()
            self.tell(idx, objective(idx))
        return self.best_index, self.best_value
