"""Execution-backend abstraction for the Multi-Process Engine.

The engine owns *what* one epoch of semantics-preserving data-parallel
training means (paper Sec. IV-B2: split each global batch into ``n``
rank chunks, sample + propagate independently, average gradients, take
one optimizer step); an :class:`ExecutionBackend` owns *how* the
``n`` ranks execute — sequentially, or as real OS processes over shared
memory.  :mod:`repro.exec` maps each backend's name to its class so the
engine, CLI and autotuner can select one with a string
(``get_backend("process")``).

The helpers :func:`rank_chunk`, :func:`acquire_batch` and
:func:`compute_loss` are the single source of truth for batch splitting,
the per-rank sampling step and the per-rank loss; the inline backend and
the process backend's workers both call them, which is what makes loss
trajectories bit-identical across backends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.autograd.functional import cross_entropy
from repro.autograd.module import Module
from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import MultiProcessEngine

__all__ = [
    "EpochResult",
    "ExecutionBackend",
    "rank_chunk",
    "compute_loss",
    "acquire_batch",
]


@dataclass
class EpochResult:
    """What a backend hands back from one epoch: losses and sampled work.

    ``sample_wait`` / ``compute_time`` are the per-stage breakdown summed
    over ranks: seconds the trainer spent acquiring batches (blocked on
    the sampler — the whole sampling cost when running synchronously, the
    residual queue wait when prefetching) and seconds in the train stage
    — forward/backward/optimizer work *plus* gradient synchronisation,
    so a rank stalled in the all-reduce barrier books that straggler
    wait as train-stage time, not sample wait.

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

    The single definition of the acquisition protocol both backends
    share: take the next in-order batch from ``prefetcher`` when the
    pipeline is on, otherwise split + sample synchronously with the
    identical per-step RNG (``derive_rng(seed, "sample", epoch, step,
    rank)``).  Returns ``None`` for an empty rank chunk in both modes.
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
