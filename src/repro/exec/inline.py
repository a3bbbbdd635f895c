"""Inline backend: ranks execute sequentially in the calling thread.

Bit-for-bit deterministic — the reference semantics the process backend
reproduces bit for bit.  Every rank runs on the engine's one model: the
backend opens one :func:`repro.exec.base.rank_steps` generator per rank
and advances them in lockstep, rank order within each step.  The ranks'
gradient lists are averaged by
:func:`repro.distributed.ddp.average_gradients` and one optimizer step
follows.  No communicator is needed because nothing runs concurrently.

With ``engine.prefetch`` on, every rank's generator starts its sampler
threads before step 0 — compute still runs sequentially in this thread,
but sampling for future steps overlaps it.  Because each step's RNG is
derived from ``(seed, epoch, step, rank)`` either way, the loss
trajectory is bit-identical with prefetching on or off.  Unlike a
process rank, the backend never re-pins the calling thread to the
training cores: that thread is the caller's, not a rank's.

Ranks step the engine's one model in place, so to leave a failed epoch
no trace (the backend contract of :mod:`repro.exec.base`) the backend
snapshots the weights and the optimizer at epoch start and restores
them before re-raising.
"""

from __future__ import annotations

import numpy as np

from repro.distributed.ddp import average_gradients
from repro.exec.base import EpochResult, ExecutionBackend, epoch_plan_for_rank, rank_steps

__all__ = ["InlineBackend"]


class InlineBackend(ExecutionBackend):
    """Sequential rank execution (deterministic reference backend)."""

    name = "inline"

    def run_epoch(self, engine, epoch: int, plan: list[np.ndarray]) -> EpochResult:
        model = engine.model
        params = model.parameters()
        weights = model.state_dict()
        optimizer_state = engine.optimizer.state_dict()
        ranks = []
        try:
            for rank in range(engine.n):
                ranks.append(
                    rank_steps(
                        epoch_plan_for_rank(engine, epoch, plan, rank),
                        rank=rank,
                        world_size=engine.n,
                        seed=engine.seed,
                        graph=engine.dataset.graph,
                        features=engine.features,
                        labels=engine.dataset.labels,
                        model=model,
                    )
                )
            # zip advances the ranks in rank order, one step each
            for rank_grads in zip(*(steps for steps, _ in ranks)):
                average_gradients(params, rank_grads)
                engine.optimizer.step()
        except BaseException:
            model.load_state_dict(weights)
            engine.optimizer.load_state_dict(optimizer_state)
            raise
        finally:
            for steps, _ in ranks:
                steps.close()
        return EpochResult.from_records([record for _, record in ranks])
