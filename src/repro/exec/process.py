"""Process backend: one OS process per rank over shared memory.

This is the paper's actual mechanism (Sec. IV-B): ``n`` training
processes escape the GIL entirely, the graph and feature matrices live
in shared memory (:class:`repro.graph.shm.SharedGraphStore` — created
once per engine and mapped zero-copy by every worker), gradients are
synchronised through :class:`repro.distributed.comm.ProcessWorld`
collectives over a shared float64 region, and each worker pins itself to
its :class:`repro.platform.corebind.ProcessBinding` cores with
``os.sched_setaffinity`` before touching any data.

Every epoch runs through one path: a :class:`repro.exec.pool.WorkerPool`
forks the rank processes, each epoch ships a small
:class:`~repro.exec.base.EpochPlan` over a command queue, and weights
travel through a shared-memory :class:`~repro.shm.arena.ParamStore`.
The engine's ``persistent`` flag only sets the pool's lifetime:

**persistent** (default)
    The pool stays alive across epochs *and* the engine's reconfigurations.
    After the first epoch the measured ``launch_time`` collapses to the
    cost of a weight memcpy — the relaunch tax the online tuner used to
    pay in every trial is gone.
**respawn**
    The pool is shut down after every epoch, so each epoch forks fresh
    workers and pickles the engine's model into each of them.  This mirrors
    ARGO's own behaviour (the online tuner re-launches training every
    search epoch to reallocate processes, paper Listing 3) and is kept
    as the baseline the ``fig8_persistent_overhead`` benchmark measures
    the long-lived pool against.

With prefetching on, each rank process additionally runs
``sampler_workers`` sampler threads
(:func:`repro.pipeline.prefetch.rank_step_prefetcher`) pinned to the
binding's *sampling* cores, while the trainer thread re-pins to the
*training* cores — the paper's sampler/trainer core split, inside every
rank.

Semantics are identical to the inline backend in both modes: each rank
drives the same :func:`repro.exec.base.rank_steps` generator the inline
backend drives ``n`` of (same batch split, per-rank sample streams and
dropout masks keyed on ``(seed, epoch, step, rank)``, same stage
timings), and the all-reduce averages gradients exactly as
:func:`repro.distributed.ddp.average_gradients` does.  The ranks'
:class:`~repro.exec.base.RankRecord` records fold into the epoch result through
:meth:`~repro.exec.base.EpochResult.from_records`, as inline's do.
Because all ranks finish an epoch with identical weights and optimizer
state, only rank 0 ships its model/optimizer state back, through shared
memory; the parent loads it into the engine's one model and optimizer.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

from repro.exec.base import EpochResult, ExecutionBackend
from repro.exec.pool import WorkerPool
from repro.graph.shm import SharedGraphStore

__all__ = ["ProcessBackend"]


class ProcessBackend(ExecutionBackend):
    """True multi-process execution with shared-memory data plane.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method (``None`` → platform default;
        ``fork`` on Linux).  ``spawn`` also works — all worker state is
        picklable and the shared segments re-attach by name.
    timeout:
        Seconds any single collective may block before the world is
        declared broken; the whole-epoch budget scales with the step
        count on top of this.

    The engine's ``persistent`` flag selects whether the
    :class:`WorkerPool` outlives the epoch or is shut down after it (see
    the module docstring).  The shared-memory graph store persists across
    epochs in both modes (workers attach; the data never moves); call
    :meth:`shutdown` — or use the owning engine as a context manager —
    to stop any pool and unlink the segments.  When an epoch *fails* (a
    worker crash, a broken collective, a timeout, a killed child), the
    backend reaps every child — pool included — and unlinks every
    segment immediately: no exception path may leak shared-memory
    segments or zombie processes.
    """

    name = "process"

    def __init__(self, *, start_method: str | None = None, timeout: float = 120.0):
        self._ctx = mp.get_context(start_method)
        self.timeout = float(timeout)
        self._store: SharedGraphStore | None = None
        # strong reference, compared by identity: a freed dataset's id()
        # can be recycled — an id-keyed cache could silently serve the
        # wrong graph
        self._store_dataset = None
        self._pool: WorkerPool | None = None

    # ------------------------------------------------------------------
    def _ensure_store(self, dataset) -> SharedGraphStore:
        if self._store is not None and not self._store.closed:
            if self._store_dataset is dataset:
                return self._store
            self._store.unlink()
        self._store = SharedGraphStore.from_dataset(dataset)
        self._store_dataset = dataset
        return self._store

    @property
    def pool(self) -> WorkerPool | None:
        """The backend's worker pool, if any (diagnostics/tests); in
        respawn mode it holds no workers between epochs."""
        return self._pool

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._store is not None and not self._store.closed:
            self._store.unlink()
        self._store = None
        self._store_dataset = None

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def run_epoch(self, engine, epoch: int, plan: list[np.ndarray]) -> EpochResult:
        store = self._ensure_store(engine.dataset)
        if self._pool is None:
            self._pool = WorkerPool(self._ctx, timeout=self.timeout)
        try:
            # launch tax: (re)forking workers when needed plus shipping
            # this epoch's weights into them — a shm memcpy once the
            # pool is warm, fork + a pickled model every epoch in
            # respawn mode.  A fresh launch already published the current
            # state as the ParamStore template, so only warm epochs
            # publish here.
            start = time.perf_counter()
            if not self._pool.ensure(engine, store):
                self._pool.publish(engine)
            launch_time = time.perf_counter() - start
            results = self._pool.run_epoch(engine, epoch, plan)
            pool_launches = self._pool.launches
            pool_parked = self._pool.parked
            if not engine.persistent:
                self._pool.shutdown()  # respawn: the pool lives one epoch
        except BaseException:
            # failed epoch: the pool already reaped its workers and
            # unlinked its segments; release the graph store too — no
            # exception path may leak segments or children
            self.shutdown()
            raise
        return EpochResult.from_records(
            [results[rank]["record"] for rank in range(engine.n)],
            launch_time=launch_time,
            pool_launches=pool_launches,
            pool_parked=pool_parked,
        )
