"""Execution-backend abstraction and the one rank step of the Multi-Process Engine.

The engine owns *what* one epoch of semantics-preserving data-parallel
training means (paper Sec. IV-B2: split each global batch into ``n``
rank chunks, sample + propagate independently, average gradients, take
one optimizer step); an :class:`ExecutionBackend` owns *how* the
``n`` ranks execute — sequentially, or as real OS processes over shared
memory.  :mod:`repro.exec` maps each backend's name to its class so the
engine, CLI and autotuner can select one with a string
(``get_backend("process")``).

The rank's side of that algorithm is written once, here:
:func:`rank_steps` is a generator that, for each step of the rank's
:class:`EpochPlan`, zeroes the grads, acquires the rank's batch
(:func:`acquire_batch`, prefetched or not), runs :func:`compute_loss`
and ``backward``, and yields the rank's gradient list.  A backend only
drives it: inline advances ``n`` of them in lockstep and averages their
lists; a process rank advances one and all-reduces.  Both fold the
ranks' :class:`RankRecord` records into one :class:`EpochResult` through
:meth:`EpochResult.from_records`, so losses, ``None`` gradients and
stage timings mean the same on every backend.  :func:`rank_chunk` is
the one definition of the batch split.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Generator, Sequence

import numpy as np

from repro.autograd.functional import cross_entropy
from repro.autograd.module import Module
from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor
from repro.pipeline.prefetch import rank_step_prefetcher
from repro.platform.corebind import sampling_affinity
from repro.tuning.defaults import DEFAULT_QUEUE_DEPTH

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import MultiProcessEngine

__all__ = [
    "EpochPlan",
    "EpochResult",
    "ExecutionBackend",
    "RankRecord",
    "rank_chunk",
    "compute_loss",
    "acquire_batch",
    "epoch_plan_for_rank",
    "rank_steps",
]


@dataclass
class EpochPlan:
    """One epoch's marching orders for one rank, the input of :func:`rank_steps`.

    The process backend ships it to the rank worker; weights are *not*
    in here — the parent publishes them to the shared
    :class:`~repro.shm.arena.ParamStore` before sending the plan.
    """

    epoch: int
    plan: list  # global batch node-id arrays, shared by all ranks
    sampler: object
    binding: object = None  # ProcessBinding | tuple[int, ...] | None
    prefetch: bool = False
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    sampler_workers: int = 1


def epoch_plan_for_rank(engine, epoch: int, plan: list[np.ndarray], rank: int) -> EpochPlan:
    """Build rank ``rank``'s :class:`EpochPlan` from the engine's state."""
    bindings = engine.bindings
    return EpochPlan(
        epoch=epoch,
        plan=plan,
        sampler=engine.sampler,
        binding=bindings[rank] if bindings is not None else None,
        prefetch=engine.prefetch,
        queue_depth=engine.queue_depth,
        sampler_workers=engine.sampler_workers,
    )


@dataclass
class RankRecord:
    """What one rank's :func:`rank_steps` measured in one epoch.

    ``losses`` holds ``(step, loss)`` pairs (none for an empty chunk).
    ``sample_wait`` is the rank's seconds in :func:`acquire_batch`,
    ``compute_time`` its seconds in forward and backward.
    """

    losses: list[tuple[int, float]] = field(default_factory=list)
    edges: int = 0
    sample_wait: float = 0.0
    compute_time: float = 0.0


@dataclass
class EpochResult:
    """What a backend hands back from one epoch: losses and sampled work.

    ``losses`` are the rank losses step-major (rank order within a
    step).  ``sample_wait`` / ``compute_time`` are the per-stage
    breakdown summed over ranks, as each rank's :func:`rank_steps`
    measured them: seconds acquiring batches (the whole sampling cost
    when running synchronously, the residual queue wait when
    prefetching) and seconds in forward plus backward.  Gradient
    synchronisation — including a rank's wait for stragglers at the
    all-reduce barrier — and the optimizer step are in neither.

    ``launch_time`` is the epoch's worker-launch tax: forking rank
    processes and shipping weights into them.  Zero for the in-process
    backends; paid every epoch by a one-epoch (respawn) worker pool; ≈0
    after the first epoch under the persistent worker pool.

    ``pool_launches`` / ``pool_parked`` are the process backend's pool
    lifecycle diagnostics as of this epoch: cumulative worker (re)fork
    count and workers currently parked idle after a shrink.  Zero for
    the in-process backends.
    """

    losses: list[float]
    sampled_edges: int
    sample_wait: float = 0.0
    compute_time: float = 0.0
    launch_time: float = 0.0
    pool_launches: int = 0
    pool_parked: int = 0

    @classmethod
    def from_records(cls, records: Sequence[RankRecord], **launch) -> "EpochResult":
        """Fold the ranks' records (in rank order) into one epoch result;
        ``launch`` sets the process backend's launch fields."""
        # a stable sort by step keeps rank order within each step
        steps = sorted((pair for rec in records for pair in rec.losses), key=itemgetter(0))
        return cls(
            losses=[loss for _, loss in steps],
            sampled_edges=sum(rec.edges for rec in records),
            sample_wait=sum(rec.sample_wait for rec in records),
            compute_time=sum(rec.compute_time for rec in records),
            **launch,
        )


def rank_chunk(global_batch: np.ndarray, world_size: int, rank: int) -> np.ndarray:
    """Rank ``rank``'s near-equal chunk of one global batch.

    Every backend (and every worker process) must split identically for
    the union-of-chunks semantics contract to hold; this function is the
    one place the split is defined.
    """
    return np.array_split(global_batch, world_size)[rank]


def acquire_batch(
    prefetcher, sampler, graph, global_batch, *, world_size, rank, seed, epoch, step
):
    """The batch-acquisition stage of one rank step, prefetched or not.

    Takes the next in-order batch from ``prefetcher`` when the pipeline
    is on, otherwise splits + samples synchronously with the identical
    per-step RNG (``derive_rng(seed, "sample", epoch, step, rank)``) —
    the prefetcher's jobs run this same synchronous branch.  Returns
    ``None`` for an empty rank chunk in both modes.
    """
    from repro.utils.rng import derive_rng

    if prefetcher is not None:
        return next(prefetcher)
    seeds = rank_chunk(global_batch, world_size, rank)
    if len(seeds) == 0:
        return None
    return sampler.sample(graph, seeds, rng=derive_rng(seed, "sample", epoch, step, rank))


def compute_loss(batch, features: Tensor, labels: np.ndarray, model: Module, key: tuple):
    """The compute stage: gather + forward + loss on an already-sampled batch.

    ``key`` is the rank-step key ``(seed, epoch, step, rank)`` that
    :func:`acquire_batch` derives the sample stream from; the model keys
    its dropout masks on it, so every rank draws its own masks.
    """
    x = gather_rows(features, batch.input_ids)
    out = model(batch.blocks, x, dropout_key=key)
    loss = cross_entropy(out, labels[batch.seeds])
    return loss, batch.total_edges


def rank_steps(
    orders: EpochPlan, *, rank: int, world_size: int, seed: int, graph, features: Tensor,
    labels: np.ndarray, model: Module,
) -> tuple[Generator[list, None, None], RankRecord]:
    """Open rank ``rank``'s training steps for one epoch.

    Returns ``(steps, record)``.  Each advance of ``steps`` runs the
    next step of ``orders.plan`` on ``model``: zero the grads, acquire
    the rank's batch, forward + loss + backward, and yield the rank's
    gradient list (``None`` where a parameter got no gradient, and all
    ``None`` for an empty chunk).  The driver averages the lists across
    ranks and steps the optimizer before advancing again.  ``record``
    fills in as the steps run.

    With ``orders.prefetch`` on, the rank's sampler threads are already
    running when this returns, pinned to the binding's sampling cores;
    closing ``steps`` (or exhausting it) shuts them down.
    """
    steps = _rank_steps(orders, rank, world_size, seed, graph, features, labels, model)
    return steps, next(steps)


def _rank_steps(orders, rank, world_size, seed, graph, features, labels, model):
    epoch = orders.epoch
    prefetcher = None
    if orders.prefetch:
        prefetcher = rank_step_prefetcher(
            orders.sampler, graph, orders.plan, world_size=world_size, rank=rank,
            seed=seed, epoch=epoch, num_workers=orders.sampler_workers,
            queue_depth=orders.queue_depth,
            sampling_cores=sampling_affinity(orders.binding),
        )
    try:
        record = RankRecord()
        yield record  # opened: the prefetcher samples ahead from here
        params = model.parameters()
        for step, global_batch in enumerate(orders.plan):
            model.zero_grad()
            start = time.perf_counter()
            batch = acquire_batch(
                prefetcher, orders.sampler, graph, global_batch,
                world_size=world_size, rank=rank, seed=seed, epoch=epoch, step=step,
            )
            record.sample_wait += time.perf_counter() - start
            if batch is not None:
                start = time.perf_counter()
                loss, edges = compute_loss(
                    batch, features, labels, model, (seed, epoch, step, rank)
                )
                loss.backward()
                record.compute_time += time.perf_counter() - start
                record.losses.append((step, loss.item()))
                record.edges += edges
            yield [p.grad for p in params]
    finally:
        if prefetcher is not None:
            prefetcher.close()


class ExecutionBackend(ABC):
    """Strategy object executing the engine's ``n`` ranks for one epoch.

    Contract
    --------
    * ``run_epoch`` trains every rank through every step of ``plan`` and
      leaves ``engine.model`` and ``engine.optimizer`` in the post-epoch
      state — exactly as if the inline backend had run.  A ``run_epoch``
      that raises leaves both in the pre-epoch state, so a retry lands
      where a never-failed engine does.
    * ``shutdown`` releases any cross-epoch resources (worker pools,
      shared-memory segments); it must be idempotent and safe to call on
      a backend that never ran.
    """

    #: the name :func:`repro.exec.get_backend` selects it by
    name: str = ""

    @abstractmethod
    def run_epoch(
        self, engine: "MultiProcessEngine", epoch: int, plan: list[np.ndarray]
    ) -> EpochResult:
        """Execute one epoch's plan across all ranks."""

    def shutdown(self) -> None:
        """Release backend-held resources (default: nothing to release)."""
