"""The user-facing ARGO runtime (paper Listing 1/3 API).

Usage mirrors the paper::

    def train(dataset, sampler, model, *, config, epochs):
        ...          # one call trains `epochs` epochs under `config`
        return seconds_per_epoch_list

    runtime = ARGO(n_search=20, epoch=200, space=space)
    result = runtime.run(train, args=(dataset, sampler, model))

During the first ``n_search`` epochs the runtime re-launches the training
function once per epoch (``epochs=1``) with the tuner's proposal — this
is why Listing 3 turns the epoch count into a variable.  Afterwards it
launches the remaining ``epoch - n_search`` epochs in one call with the
best configuration found.

The training function receives ``config`` (a :class:`RuntimeConfig`) and
``epochs`` as keyword arguments and must return the measured epoch time
in seconds — either a scalar (one epoch) or a sequence (one per epoch).
:func:`repro.core.train_loop.make_train_fn` builds such a function around
one Multi-Process Engine, which each call reconfigures in place: the
model, the optimizer state and the epoch counter carry over, so a
re-launch changes speed, never training (paper Fig. 9), and a run whose
tuner proposes one configuration throughout equals a plain engine at it.
The performance benchmarks instead pass a closure over
:class:`repro.platform.simulator.SimulatedRuntime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.autotuner import OnlineAutoTuner
from repro.core.config import RuntimeConfig
from repro.tuning.space import ConfigSpace
from repro.utils.validation import check_positive_int

__all__ = ["ARGO", "ArgoRunResult"]


@dataclass
class ArgoRunResult:
    """End-to-end record of an ARGO-managed training run."""

    best_config: RuntimeConfig
    total_epochs: int
    search_epochs: int
    #: observed epoch times during the search phase, (config, seconds)
    search_history: list[tuple[tuple[int, int, int], float]]
    #: epoch times of the post-search phase under the best config
    exploit_epoch_times: list[float]
    tuner_overhead_seconds: float
    tuner_memory_bytes: int

    @property
    def total_time(self) -> float:
        """End-to-end training time incl. auto-tuning overhead (Fig. 10/11)."""
        search = sum(t for _, t in self.search_history)
        return search + sum(self.exploit_epoch_times) + self.tuner_overhead_seconds


class ARGO:
    """The runtime wrapper users enable with a few lines (Listing 1).

    Parameters
    ----------
    n_search:
        Online-learning epochs (paper Table VI; defaults to 5% of the
        space when omitted).
    epoch:
        Total training epochs (paper uses 200).
    space:
        The platform's :class:`ConfigSpace`.
    seed:
        Tuner determinism.
    """

    def __init__(
        self,
        n_search: int | None = None,
        epoch: int = 200,
        *,
        space: ConfigSpace,
        seed: int = 0,
        acquisition: str = "ei",
    ):
        self.epoch = check_positive_int(epoch, "epoch")
        if n_search is None:
            n_search = space.paper_budget()
        self.n_search = check_positive_int(n_search, "n_search")
        if self.n_search >= self.epoch:
            raise ValueError(
                f"n_search ({self.n_search}) must be smaller than epoch ({self.epoch})"
            )
        self.space = space
        self.seed = int(seed)
        self.tuner = OnlineAutoTuner(space, self.n_search, seed=seed, acquisition=acquisition)

    # ------------------------------------------------------------------
    @staticmethod
    def _as_times(ret, epochs: int) -> list[float]:
        if isinstance(ret, (int, float)):
            if epochs != 1:
                raise ValueError(
                    "training function returned a scalar for a multi-epoch call; "
                    "return one time per epoch"
                )
            return [float(ret)]
        times = [float(v) for v in ret]
        if len(times) != epochs:
            raise ValueError(
                f"training function returned {len(times)} epoch times for {epochs} epochs"
            )
        return times

    def run(self, train_fn: Callable, args: tuple = (), kwargs: dict | None = None) -> ArgoRunResult:
        """Train ``epoch`` epochs with online auto-tuning (Listing 3)."""
        kwargs = dict(kwargs or {})

        # Phase 1 — Online Learning: one epoch per proposal (Algorithm 1)
        while not self.tuner.done:
            cfg = self.tuner.propose()
            ret = train_fn(*args, config=RuntimeConfig.from_tuple(cfg), epochs=1, **kwargs)
            (epoch_time,) = self._as_times(ret, 1)
            self.tuner.observe(cfg, epoch_time)

        # Phase 2 — exploit the best configuration for the rest
        best = self.tuner.get_opt()
        remaining = self.epoch - self.n_search
        exploit_times: list[float] = []
        if remaining > 0:
            ret = train_fn(
                *args, config=RuntimeConfig.from_tuple(best), epochs=remaining, **kwargs
            )
            exploit_times = self._as_times(ret, remaining)

        return ArgoRunResult(
            best_config=RuntimeConfig.from_tuple(best),
            total_epochs=self.epoch,
            search_epochs=self.n_search,
            search_history=list(self.tuner.history),
            exploit_epoch_times=exploit_times,
            tuner_overhead_seconds=self.tuner.overhead_seconds,
            tuner_memory_bytes=self.tuner.surrogate_memory_bytes,
        )
