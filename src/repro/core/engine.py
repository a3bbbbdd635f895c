"""The Multi-Process Engine: semantics-preserving data-parallel training.

Paper Sec. IV-B2: with ``n`` processes the engine

1. splits each global mini-batch of size ``B`` into ``n`` chunks of
   ``B/n`` (so the *effective* batch size never changes),
2. lets every rank sample and propagate its chunk independently,
3. averages gradients across ranks (synchronous SGD) and applies one
   optimizer step.

Every rank would step identical weights after an identical gradient
mean, so the engine holds one training state: one ``model`` and one
``optimizer``.  Nothing else differs between ranks: a rank's sample
stream and its dropout masks are both keyed on the rank-step key
``(seed, epoch, step, rank)``.

Execution backends
------------------
*How* the ranks run is delegated to an
:class:`repro.exec.ExecutionBackend` selected by name:

``inline``
    Ranks execute sequentially inside the calling thread.  Bit-for-bit
    deterministic; the union of rank chunks equals the single-process
    batch, so the convergence experiment (Fig. 9) compares identical
    sample streams.
``process``
    One OS *process* per rank — the paper's actual mechanism.  The CSR
    graph, features and labels live in shared memory
    (:class:`repro.graph.shm.SharedGraphStore`), gradients all-reduce
    through :class:`repro.distributed.comm.ProcessWorld`, and workers
    pin themselves to their :class:`ProcessBinding` cores.  Pass
    ``bindings`` (from :class:`repro.platform.corebind.CoreBinder`) to
    enable real core binding.

Both backends implement the same algorithm, and the all-reduce sums
ranks in the same order as ``inline``'s gradient average, so loss
trajectories and final weights are bit-identical at any rank count.
Engines using the ``process`` backend hold shared-memory segments across
epochs — call :meth:`MultiProcessEngine.shutdown` (or use the engine as
a context manager) to release them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.functional import accuracy
from repro.autograd.module import Module
from repro.autograd.ops import gather_rows
from repro.autograd.optim import make_optimizer
from repro.autograd.tensor import Tensor, no_grad
from repro.core.config import RuntimeConfig
from repro.exec import ExecutionBackend, get_backend
from repro.graph.datasets import GNNDataset
from repro.sampling.base import Sampler
from repro.tuning.defaults import DEFAULT_QUEUE_DEPTH
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive_int

__all__ = ["MultiProcessEngine", "EpochStats", "TrainHistory"]


@dataclass
class EpochStats:
    """Per-epoch record.

    ``sample_wait`` / ``compute_time`` break the epoch into the paper's
    two pipeline stages, summed over ranks and timed inside the one rank
    step (:func:`repro.exec.base.rank_steps`), so they mean the same on
    every backend: seconds the trainers spent blocked acquiring batches
    (the full sampling cost when synchronous, the residual queue wait
    when prefetching hides it) and seconds in forward plus backward.
    Gradient averaging, the optimizer step and a rank's barrier wait on
    stragglers are in neither.

    ``launch_time`` is the epoch's worker-launch tax (forking rank
    processes + shipping weights into them): zero for the in-process
    backends, paid every epoch when the process backend's worker pool
    lives one epoch (``persistent=False``), and ≈0 after the first
    epoch under the persistent pool — the difference is exactly the
    relaunch overhead the online tuner used to measure inside every
    trial.

    ``pool_launches`` / ``pool_parked`` surface the process backend's
    pool lifecycle diagnostics (cumulative worker forks — one per epoch
    in respawn mode; workers parked idle after a shrink) for tuner
    debugging; zero for the in-process backends.
    """

    epoch: int
    mean_loss: float
    epoch_time: float
    num_global_steps: int
    num_minibatches: int  # n per global step
    sampled_edges: int
    sample_wait: float = 0.0
    compute_time: float = 0.0
    launch_time: float = 0.0
    pool_launches: int = 0
    pool_parked: int = 0


@dataclass
class TrainHistory:
    """Accumulated training records plus optional accuracy checkpoints."""

    epochs: list[EpochStats] = field(default_factory=list)
    #: (cumulative minibatch count, validation accuracy) pairs — Fig. 9
    accuracy_curve: list[tuple[int, float]] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(e.epoch_time for e in self.epochs)

    @property
    def total_minibatches(self) -> int:
        return sum(e.num_minibatches for e in self.epochs)

    @property
    def losses(self) -> list[float]:
        return [e.mean_loss for e in self.epochs]


class MultiProcessEngine:
    """Data-parallel trainer over ``n`` ranks.

    ``num_processes``, ``backend``, ``bindings`` and the pipeline and pool
    knobs can change between epochs through :meth:`reconfigure`.

    Parameters
    ----------
    dataset, sampler, model:
        Training substrate.  The model instance is the engine's one
        model: every rank trains on it.
    num_processes:
        ``n`` — ranks instantiated.
    global_batch_size:
        ``B``; every rank trains on chunks of ``B/n`` (rounded down, min
        1).  ``B`` must be >= ``n``.
    lr, optimizer:
        Optimiser settings (paper examples use Adam).
    backend:
        Execution backend name: ``"inline"`` (deterministic, default) or
        ``"process"`` (see :mod:`repro.exec`).  The engine owns its
        backends, one per name, created on first use and all stopped by
        :meth:`shutdown`; a :meth:`reconfigure` back to a name used
        before finds that backend's worker pool still warm.
    backend_options:
        Extra keyword arguments for every backend the engine creates
        (e.g. ``{"start_method": "spawn"}`` for the process backend).
    bindings:
        Optional per-rank core assignments
        (:class:`repro.platform.corebind.ProcessBinding` list, one per
        rank); the process backend applies them with
        ``os.sched_setaffinity`` inside each worker.
    eval_nodes:
        Optional cap on validation nodes scored per accuracy checkpoint.
    seed:
        Controls the epoch shuffles and per-rank sampling streams.
    prefetch, queue_depth, sampler_workers:
        The sampling/compute overlap pipeline (paper Sec. IV-B1).  With
        ``prefetch`` on, every rank runs ``sampler_workers`` sampler
        workers feeding a bounded queue at most ``queue_depth`` batches
        ahead of compute, with strict in-order delivery
        (:mod:`repro.pipeline`).  Loss trajectories are bit-identical to
        the synchronous path — every step's sampling RNG is a pure
        function of ``(seed, epoch, step, rank)`` — so the knobs change
        wall clock, never numerics.  ``sampler_workers`` is what the
        auto-tuner's ``s`` (sampling cores) axis plugs into.
    persistent:
        Lifetime of the process backend's worker pool (ignored by the
        in-process backends).  The rank workers are always driven by
        shared-memory plan/param channels; ``True`` (default) keeps
        them alive across epochs, so only the first epoch pays the
        fork-and-ship launch tax, while ``False`` (respawn) shuts the
        pool down after every epoch, so every epoch pays it.  Loss
        trajectories are bit-identical either way.
    """

    def __init__(
        self,
        dataset: GNNDataset,
        sampler: Sampler,
        model: Module,
        *,
        num_processes: int = 1,
        global_batch_size: int = 1024,
        lr: float = 3e-3,
        optimizer: str = "adam",
        backend: str = "inline",
        backend_options: dict | None = None,
        bindings: list | None = None,
        eval_nodes: int = 512,
        seed: int = 0,
        prefetch: bool = False,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        sampler_workers: int = 1,
        persistent: bool = True,
    ):
        self.dataset = dataset
        self.sampler = sampler
        self.global_batch = check_positive_int(global_batch_size, "global_batch_size")
        self._backend_options = dict(backend_options or {})
        self._backends: dict[str, ExecutionBackend] = {}
        # ``t`` only shapes core bindings, and those arrive ready-made
        self.reconfigure(
            RuntimeConfig(
                num_processes, sampler_workers, 1, backend=backend, prefetch=prefetch,
                queue_depth=queue_depth, persistent=persistent,
            ),
            bindings=bindings,
        )
        self.lr = float(lr)
        self.optimizer_name = str(optimizer).lower()
        self.seed = int(seed)
        self.eval_nodes = int(eval_nodes)
        self.model = model
        self.optimizer = make_optimizer(self.optimizer_name, model.parameters(), lr)
        self.features = Tensor(dataset.features)
        self.history = TrainHistory()
        self._epoch = 0
        self._minibatches_done = 0

    def reconfigure(self, config: RuntimeConfig, *, bindings: list | None = None) -> None:
        """Apply a tuner's :class:`RuntimeConfig` to the next epochs, in place.

        Sets ``n``, ``sampler_workers`` (from ``config.sampling_cores``),
        ``prefetch``, ``queue_depth``, ``persistent``, the backend and the
        core ``bindings``.  The model, the optimizer, the epoch counter and
        the history carry over, so a run that reconfigures between epochs
        trains exactly as one engine would at the same configurations —
        ARGO's re-launches change speed, never training.  A rejected
        configuration raises :class:`ValueError` and changes nothing.
        """
        n = config.num_processes
        if self.global_batch < n:
            raise ValueError(
                f"global batch ({self.global_batch}) must be >= num_processes ({n})"
            )
        if bindings is not None and len(bindings) < n:
            raise ValueError(f"got {len(bindings)} core bindings for {n} ranks")
        self.n = n
        self.backend = config.backend
        self.bindings = bindings
        self.prefetch = config.prefetch
        self.queue_depth = config.queue_depth
        self.sampler_workers = config.sampling_cores
        self.persistent = config.persistent

    @property
    def _backend(self) -> ExecutionBackend:
        """The backend named by ``self.backend``, created on its first use."""
        if self.backend not in self._backends:
            self._backends[self.backend] = get_backend(self.backend, **self._backend_options)
        return self._backends[self.backend]

    # ------------------------------------------------------------------
    @property
    def per_rank_batch(self) -> int:
        return max(1, self.global_batch // self.n)

    def _epoch_plan(self, epoch: int) -> list[np.ndarray]:
        """Shuffled global batches for this epoch (shared by all ranks)."""
        rng = derive_rng(self.seed, "shuffle", epoch)
        perm = rng.permutation(self.dataset.train_idx)
        n_steps = max(1, len(perm) // self.global_batch)
        return [
            perm[i * self.global_batch : (i + 1) * self.global_batch]
            for i in range(n_steps)
        ]

    # ------------------------------------------------------------------
    def train_epoch(self) -> EpochStats:
        """Run one epoch; returns its stats and appends to history."""
        epoch = self._epoch
        start = time.perf_counter()
        plan = self._epoch_plan(epoch)
        result = self._backend.run_epoch(self, epoch, plan)
        stats = EpochStats(
            epoch=epoch,
            mean_loss=float(np.mean(result.losses)) if result.losses else 0.0,
            epoch_time=time.perf_counter() - start,
            num_global_steps=len(plan),
            num_minibatches=len(plan) * self.n,
            sampled_edges=int(result.sampled_edges),
            sample_wait=float(result.sample_wait),
            compute_time=float(result.compute_time),
            launch_time=float(result.launch_time),
            pool_launches=int(result.pool_launches),
            pool_parked=int(result.pool_parked),
        )
        self._minibatches_done += len(plan) * self.n
        self.history.epochs.append(stats)
        self._epoch += 1
        return stats

    # ------------------------------------------------------------------
    def evaluate(self, nodes: np.ndarray | None = None) -> float:
        """Validation accuracy of the current model."""
        ds = self.dataset
        if nodes is None:
            nodes = ds.val_idx[: self.eval_nodes]
        if len(nodes) == 0:
            return 0.0
        model = self.model
        was_training = model.training
        model.eval()
        rng = derive_rng(self.seed, "eval", self._epoch)
        batch = self.sampler.sample(ds.graph, np.asarray(nodes, dtype=np.int64), rng=rng)
        with no_grad():
            x = gather_rows(self.features, batch.input_ids)
            out = model(batch.blocks, x)
            acc = accuracy(out, ds.labels[batch.seeds])
        model.train(was_training)
        return acc

    def record_accuracy(self) -> float:
        """Evaluate and append to the Fig.-9 curve (x = minibatch count)."""
        acc = self.evaluate()
        self.history.accuracy_curve.append((self._minibatches_done, acc))
        return acc

    def train(self, num_epochs: int, *, eval_every: int | None = None) -> TrainHistory:
        """Train ``num_epochs`` epochs, optionally recording accuracy."""
        check_positive_int(num_epochs, "num_epochs")
        for _ in range(num_epochs):
            self.train_epoch()
            if eval_every and self._epoch % eval_every == 0:
                self.record_accuracy()
        return self.history

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Release backend resources (worker pools, shared-memory segments).

        Idempotent; the engine remains usable — each backend re-creates
        what it needs on its next epoch.
        """
        for backend in self._backends.values():
            backend.shutdown()

    def __enter__(self) -> "MultiProcessEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass
