"""Inline backend: ranks execute sequentially in the calling thread.

Bit-for-bit deterministic — the reference semantics the process backend
reproduces bit for bit.  Every rank runs on the engine's one model; the
ranks' gradients are averaged by
:func:`repro.distributed.ddp.average_gradients` and one optimizer step
follows.  No communicator is needed because nothing runs concurrently.

With ``engine.prefetch`` on, each rank's sample stream is produced ahead
of time by a :func:`repro.pipeline.prefetch.rank_step_prefetcher` —
compute still runs sequentially in this thread, but sampling for future
steps overlaps it.  Because each step's RNG is derived from
``(seed, epoch, step, rank)`` either way, the loss trajectory is
bit-identical with prefetching on or off.  The same key seeds the rank's
dropout masks (:func:`repro.exec.base.compute_loss`).

Ranks step the engine's one model in place, so to leave a failed epoch
no trace (the backend contract of :mod:`repro.exec.base`) the backend
snapshots the weights and the optimizer at epoch start and restores
them before re-raising.
"""

from __future__ import annotations

import time

import numpy as np

from repro.distributed.ddp import average_gradients
from repro.exec.base import EpochResult, ExecutionBackend, acquire_batch, compute_loss
from repro.pipeline.prefetch import rank_step_prefetcher
from repro.platform.corebind import sampling_affinity

__all__ = ["InlineBackend"]


class InlineBackend(ExecutionBackend):
    """Sequential rank execution (deterministic reference backend)."""

    name = "inline"

    def run_epoch(self, engine, epoch: int, plan: list[np.ndarray]) -> EpochResult:
        losses: list[float] = []
        edges = 0
        sample_wait = 0.0
        compute_time = 0.0
        prefetchers = None
        if engine.prefetch:
            prefetchers = [
                rank_step_prefetcher(
                    engine.sampler,
                    engine.dataset.graph,
                    plan,
                    world_size=engine.n,
                    rank=rank,
                    seed=engine.seed,
                    epoch=epoch,
                    num_workers=engine.sampler_workers,
                    queue_depth=engine.queue_depth,
                    sampling_cores=sampling_affinity(
                        engine.bindings[rank] if engine.bindings else None
                    ),
                )
                for rank in range(engine.n)
            ]
        model = engine.model
        params = model.parameters()
        weights = model.state_dict()
        optimizer_state = engine.optimizer.state_dict()
        try:
            for step, global_batch in enumerate(plan):
                rank_grads = []
                for rank in range(engine.n):
                    model.zero_grad()
                    start = time.perf_counter()
                    batch = acquire_batch(
                        prefetchers[rank] if prefetchers is not None else None,
                        engine.sampler,
                        engine.dataset.graph,
                        global_batch,
                        world_size=engine.n,
                        rank=rank,
                        seed=engine.seed,
                        epoch=epoch,
                        step=step,
                    )
                    sample_wait += time.perf_counter() - start
                    if batch is not None:
                        start = time.perf_counter()
                        loss, e = compute_loss(
                            batch,
                            engine.features,
                            engine.dataset.labels,
                            model,
                            (engine.seed, epoch, step, rank),
                        )
                        loss.backward()
                        compute_time += time.perf_counter() - start
                        losses.append(loss.item())
                        edges += e
                    rank_grads.append([p.grad for p in params])
                start = time.perf_counter()
                average_gradients(params, rank_grads)
                engine.optimizer.step()
                compute_time += time.perf_counter() - start
        except BaseException:
            model.load_state_dict(weights)
            engine.optimizer.load_state_dict(optimizer_state)
            raise
        finally:
            if prefetchers is not None:
                for p in prefetchers:
                    p.close()
        return EpochResult(
            losses=losses,
            sampled_edges=edges,
            sample_wait=sample_wait,
            compute_time=compute_time,
        )
