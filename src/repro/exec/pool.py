"""Worker pool: the process backend's rank processes and their channels.

Rank processes are forked once per launch — each swallowing a pickled
copy of the engine's one model — and then driven with small
:class:`~repro.exec.base.EpochPlan` messages over per-rank command
queues, with weights moving through a shared-memory
:class:`~repro.shm.arena.ParamStore` and gradients through one
:class:`~repro.distributed.comm.ProcessWorld` reused across epochs.  The
process backend keeps the pool alive across epochs by default; in
respawn mode (``persistent=False``) it shuts the pool down after every
epoch, so each epoch pays the fork-and-pickle launch tax that the online
auto-tuner would otherwise pay inside each measured trial.

The pool survives not only epochs but the engine's *reconfigurations*:
the tuner re-launches training with a new configuration every search
epoch (paper Listing 3), which reconfigures the one engine in place, and
as long as its :func:`pool_signature` matches (same ``n``, dataset,
parameter topology, optimizer, seed), the existing workers keep serving.  A *smaller* ``n`` (same everything else)
does not relaunch either: the pool's single
:class:`~repro.distributed.comm.ProcessWorld` rides a
:class:`~repro.distributed.comm.ResizableBarrier` (created before the
fork — mp locks/condvars only travel by inheritance), so the parent
re-counts the shared barrier, sends the active ranks a
:class:`~repro.exec.runtime.Rebind` and **parks** the surplus workers
idle — they keep their fork image and rejoin instantly when ``n`` grows
back.  Only growing beyond the forked worker count — or any other
signature change — triggers a clean relaunch: the old
world/params/workers are reaped and fresh ones bound.

Beyond training epochs the pool also serves forward-only inference
batches (:meth:`WorkerPool.run_infer`): the serving runtime
(:mod:`repro.serve`) shards a micro-batch's node ids across the active
ranks, each long-lived worker computes its chunk's predictions without
collectives or optimizer state, and rows return through a shared-memory
:class:`~repro.shm.arena.BatchArena` slot (pickle fallback for oversized
rows).

Failure contract: any failed epoch (worker crash, broken collective,
timeout, killed child) reaps every worker and unlinks the pool's
world + param-store segments before the error propagates; the pool
relaunches lazily on the next epoch.  The graph store is owned by the
backend, not the pool.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.distributed.comm import ProcessWorld
from repro.obs.trace import (
    NULL_RECORDER,
    SPAN_BARRIER,
    SPAN_LAUNCH,
    SPAN_PUBLISH,
    SPAN_REBIND,
)
from repro.exec.runtime import (
    GraphDeltaPlan,
    InferPlan,
    Rebind,
    WorkerInit,
    collect_results,
    encode_epoch_commands,
    rank_worker_loop,
)
from repro.shm.arena import ParamStore
from repro.utils.procs import reap_processes

__all__ = ["WorkerPool", "pool_signature"]


def pool_signature(engine) -> tuple:
    """What must stay constant for a live pool to keep serving an engine.

    The world size, parameter topology, optimizer choice and seed;
    anything else (sampler, bindings, prefetch knobs, the weights
    themselves) travels per epoch and may change freely.  The dataset is
    tracked separately by the pool as a strong *identity* reference —
    not an ``id()`` in the tuple, which a recycled address could forge.

    Runs on every epoch's reuse check, so it must not touch weight
    *values* — ``named_parameters`` reads shapes/dtypes without the
    array copies ``state_dict`` makes.
    """
    model = engine.model
    return (
        engine.n,
        tuple((k, p.data.shape, p.data.dtype.str) for k, p in model.named_parameters()),
        engine.optimizer_name,
        float(engine.lr),
        int(engine.seed),
    )


class WorkerPool:
    """``n`` rank processes plus their shared channels.

    Parameters
    ----------
    ctx:
        ``multiprocessing`` context (``fork`` and ``spawn`` both work —
        all launch state is picklable and segments re-attach by name).
    timeout:
        Seconds any single collective / queue wait may block before the
        pool is declared broken; whole-epoch budgets scale with the step
        count on top of this.
    """

    def __init__(self, ctx, *, timeout: float = 120.0):
        self._ctx = ctx
        self.timeout = float(timeout)
        #: the pool's single world, created before the fork (mp locks /
        #: condvars only travel by inheritance) and sized for the full
        #: forked worker count; its resizable barrier is re-counted on
        #: every shrink/grow instead of pre-creating one world per size.
        self.world: ProcessWorld | None = None
        self.active_n = 0
        self.params: ParamStore | None = None
        self.procs: list = []
        self._cmd_qs: list = []
        self._result_q = None
        self.signature: tuple | None = None
        #: strong references to the served dataset, the engine's model and
        #: graph store (identity-checked on reuse: parameter topology
        #: alone cannot distinguish two models differing only in
        #: non-parameter config such as dropout rate; a recreated store
        #: means the workers map retired segments; and pinning the
        #: references means their ids can never be recycled mid-pool)
        self.dataset = None
        self.model = None
        self.store = None
        self.launches = 0  # diagnostic: how often workers were (re)forked
        self._infer_seq = 0

    # ------------------------------------------------------------------
    @property
    def parked(self) -> int:
        """Diagnostic: forked workers currently idle beyond ``active_n``."""
        return max(0, len(self.procs) - self.active_n)

    @property
    def alive(self) -> bool:
        """Whether every worker is running and the active world is usable."""
        return (
            bool(self.procs)
            and all(p.is_alive() for p in self.procs)
            and self.world is not None
            and not self.world.broken
        )

    def worker_pids(self) -> list[int]:
        """PIDs of the live rank workers (stable across epochs)."""
        return [p.pid for p in self.procs]

    # ------------------------------------------------------------------
    def ensure(self, engine, store) -> bool:
        """Make the pool serve ``engine``; returns True when it (re)launched.

        A live pool with a matching :func:`pool_signature` is reused
        as-is — this is the steady-state path whose cost is approximately
        zero.  A pool that matches in everything *but* ``n`` resizes
        without re-forking as long as ``n`` fits the forked worker count:
        surplus workers park idle (shrink) or rejoin (grow back), and the
        active ranks are rebound to the pre-created world of the new
        size.  Anything else tears the old pool down and forks afresh.
        """
        sig = pool_signature(engine)
        compatible = (
            self.alive
            and self.dataset is engine.dataset
            and self.model is engine.model
            and self.store is store
        )
        if compatible and sig == self.signature:
            return False
        # serving engines carry a span recorder; training engines do not
        recorder = getattr(engine, "recorder", None) or NULL_RECORDER
        if (
            compatible
            and self.signature is not None
            and sig[1:] == self.signature[1:]
            and engine.n <= len(self.procs)
        ):
            t0 = time.perf_counter()
            self._resize(engine.n, sig)
            recorder.record(SPAN_REBIND, t0, time.perf_counter(), engine.n)
            return False
        t0 = time.perf_counter()
        self.shutdown()
        self._launch(engine, store, sig)
        recorder.record(SPAN_LAUNCH, t0, time.perf_counter(), engine.n)
        return True

    def _resize(self, n: int, sig: tuple) -> None:
        """Repoint the pool at ``n`` active ranks without re-forking.

        The shared barrier is re-counted first
        (:meth:`~repro.distributed.comm.ProcessWorld.resize` — legal
        because no rank is inside a collective between synchronous
        calls), then every newly-active rank gets a :class:`Rebind`
        (command queues are FIFO, so the rebind lands before any
        subsequent epoch/inference command); ranks beyond ``n`` simply
        stop receiving commands — parked, not reaped, keeping their
        fork image warm for a later grow.
        """
        self.world.resize(n)
        for rank in range(n):
            self._cmd_qs[rank].put(Rebind(world_size=n))
        self.active_n = n
        self.signature = sig

    def _launch(self, engine, store, sig: tuple) -> None:
        n = engine.n
        # the gradient all-reduce carries every parameter plus one
        # "had a gradient" flag per parameter
        weights = engine.model.parameters()
        capacity = max(1, sum(p.size for p in weights) + len(weights))
        # one world, created *before* the fork so every worker inherits
        # it; its resizable barrier is the substrate a later shrink's
        # Rebind re-counts without re-forking anyone.  One segment, one
        # barrier — not a per-size ladder.
        self.world = ProcessWorld(n, capacity, ctx=self._ctx, timeout=self.timeout)
        self.active_n = n
        self.params = ParamStore.create(
            {"model": engine.model.state_dict(), "optimizer": engine.optimizer.state_dict()}
        )
        self._cmd_qs = [self._ctx.Queue() for _ in range(n)]
        self._result_q = self._ctx.Queue()
        procs = []
        try:
            for rank in range(n):
                init = WorkerInit(
                    rank=rank,
                    world_size=n,
                    store_spec=store.spec,
                    param_spec=self.params.spec,
                    model=engine.model,
                    optimizer=engine.optimizer_name,
                    lr=engine.lr,
                    seed=engine.seed,
                    # serving engines carry a weight-generation counter
                    # (hot snapshot swap); training engines do not
                    generation=getattr(engine, "generation", 0),
                    parent_pid=os.getpid(),
                )
                p = self._ctx.Process(
                    target=rank_worker_loop,
                    args=(init, self.world, self._cmd_qs[rank], self._result_q),
                    daemon=True,
                )
                p.start()
                procs.append(p)
        except BaseException:
            reap_processes(procs)
            self._release_channels()
            raise
        self.procs = procs
        self.signature = sig
        self.dataset = engine.dataset
        self.model = engine.model
        self.store = store
        self.launches += 1

    # ------------------------------------------------------------------
    def publish(self, engine) -> None:
        """Ship the engine's current weights + optimizer state to the
        workers: a ``state_dict()`` copy of each, then one fixed-layout
        memcpy of those copies into the shared param store.

        Part of an epoch's launch cost — the backend times it as such —
        so it is a separate step from :meth:`run_epoch`.
        """
        if not self.alive:
            raise RuntimeError("worker pool is not running (call ensure first)")
        recorder = getattr(engine, "recorder", None) or NULL_RECORDER
        t0 = time.perf_counter()
        self.params.publish(
            {"model": engine.model.state_dict(), "optimizer": engine.optimizer.state_dict()}
        )
        recorder.record(SPAN_PUBLISH, t0, time.perf_counter())

    def run_epoch(self, engine, epoch: int, plan: list[np.ndarray]) -> dict:
        """Dispatch one (already-published) epoch, collect per-rank reports.

        On any failure the pool is torn down (workers reaped, segments
        unlinked) before the error propagates — no exception path may
        leak kernel resources.
        """
        if not self.alive:
            raise RuntimeError("worker pool is not running (call ensure first)")
        n = engine.n
        try:
            # the heavy plan/sampler payload is pickled once and shared
            # by all ranks; pre-encoding (not the queue feeder thread)
            # also surfaces an unpicklable sampler as an immediate error
            # instead of an opaque epoch timeout
            payloads = encode_epoch_commands(engine, epoch, plan)
            for rank in range(n):
                self._cmd_qs[rank].put(payloads[rank])
            results = collect_results(
                self.procs,
                self._result_q,
                self.world,
                n,
                len(plan),
                self.timeout,
                what="process backend epoch",
            )
            # fold the evolved weights and optimizer back into the
            # engine through shared memory
            state = self.params.load()
            engine.model.load_state_dict(state["model"])
            engine.optimizer.load_state_dict(state["optimizer"])
            return results
        except BaseException:
            self.shutdown(graceful=False)
            raise

    # ------------------------------------------------------------------
    def run_infer(
        self,
        node_ids: np.ndarray,
        sampler,
        *,
        seed: int,
        arena=None,
        transport=None,
        generation: int = 0,
        graph_generation: int = 0,
        rank_stats=None,
        trace_spec=None,
        recorder,
    ) -> np.ndarray:
        """Forward-only predictions for ``node_ids`` over the active ranks.

        Requests are split by index into contiguous, near-equal chunks
        (``np.array_split``), one per active rank.  Per-node determinism
        (the RNG is a pure function of ``(seed, node)``) makes the result
        independent of the split — bit-identical to inline inference
        (each rank merges its chunk into one union forward without
        touching sampling or per-request numerics).

        ``generation`` is the served-weight generation: workers that
        loaded an older one reload from the shared ParamStore before
        forwarding (hot snapshot swap).  ``arena`` (a
        :class:`~repro.shm.arena.BatchArena` with one slot per rank,
        owned by the caller) carries each rank's prediction rows as a
        raw shared-memory copy; oversized rows fall back to queue
        pickling.  ``transport`` (a
        :class:`~repro.shm.arena.TransportStats`) records which path was
        taken.  ``rank_stats`` (a :class:`~repro.serve.engine.RankStats`)
        receives each rank's busy time for imbalance accounting.
        ``recorder`` (the engine's
        :class:`~repro.obs.trace.SpanRecorder`) times the drain wait for
        all ranks' results as a ``barrier`` span and folds in the span
        histograms each rank ships with its result (its ``plan``,
        ``sample``, ``merge`` and ``forward`` spans — the ranks run
        concurrently, so those sums are rank-seconds, not wall clock).  ``trace_spec`` (a :class:`~repro.obs.trace.TraceArena`
        spec) rides each plan so workers also write their spans into
        their own shared rings.  Failure semantics
        match :meth:`run_epoch`: any broken batch tears the pool down
        before the error propagates.
        """
        if not self.alive:
            raise RuntimeError("worker pool is not running (call ensure first)")
        n = self.active_n
        node_ids = np.asarray(node_ids, dtype=np.int64)
        self._infer_seq += 1
        chunks = np.array_split(node_ids, n)
        try:
            for rank in range(n):
                self._cmd_qs[rank].put(
                    InferPlan(
                        seq=self._infer_seq,
                        node_ids=chunks[rank],
                        sampler=sampler,
                        seed=seed,
                        slot=rank,
                        arena_spec=arena.spec if arena is not None else None,
                        generation=generation,
                        graph_generation=graph_generation,
                        trace_spec=trace_spec,
                    )
                )
            t0 = time.perf_counter()
            results = collect_results(
                self.procs,
                self._result_q,
                self.world,
                n,
                1,
                self.timeout,
                what="pool inference batch",
            )
            recorder.record(SPAN_BARRIER, t0, time.perf_counter(), self._infer_seq)
            parts = []
            for rank in range(n):
                item = results[rank]
                recorder.merge(item["spans"])
                if "layouts" in item:
                    (preds,) = arena.read(rank, item["layouts"])
                    if transport is not None:
                        transport.arena_hits += 1
                else:
                    preds = item["preds"]
                    if transport is not None and len(chunks[rank]):
                        transport.pickle_fallbacks += 1
                if len(preds) != len(chunks[rank]):
                    raise RuntimeError(
                        f"rank {rank} returned {len(preds)} prediction rows "
                        f"for {len(chunks[rank])} assigned requests"
                    )
                parts.append(preds)
            if rank_stats is not None:
                rank_stats.add_batch([results[rank]["busy_s"] for rank in range(n)])
            return np.concatenate(parts, axis=0)
        except BaseException:
            self.shutdown(graceful=False)
            raise

    def broadcast_delta(self, graph_generation: int, fragment_specs: list) -> None:
        """Announce newly published graph fragments to every forked worker.

        ``fragment_specs`` lists only the fragments published since the
        previous announcement (the last of them creates
        ``graph_generation``).  Fire-and-forget: one
        :class:`~repro.exec.runtime.GraphDeltaPlan`
        per command queue — **all** forked workers, parked ranks
        included, so a later grow-rebind resumes at current topology.
        FIFO queue order guarantees the announcement lands before any
        :class:`~repro.exec.runtime.InferPlan` issued at the new
        generation; no ack is needed and ``launches`` does not move.
        """
        if not self.alive:
            raise RuntimeError("worker pool is not running (call ensure first)")
        plan = GraphDeltaPlan(
            graph_generation=graph_generation, fragment_specs=fragment_specs
        )
        for q in self._cmd_qs:
            q.put(plan)

    # ------------------------------------------------------------------
    def _release_channels(self) -> None:
        for q in (*self._cmd_qs, self._result_q):
            if q is not None:
                try:
                    q.cancel_join_thread()
                    q.close()
                except Exception:  # pragma: no cover - already closed
                    pass
        self._cmd_qs = []
        self._result_q = None
        if self.world is not None:
            self.world.unlink()
            self.world = None
        self.active_n = 0
        if self.params is not None:
            self.params.unlink()
            self.params = None

    def shutdown(self, *, graceful: bool = True) -> None:
        """Stop the workers and unlink every pool-owned segment; idempotent.

        ``graceful`` sends the stop sentinel and joins briefly before
        reaping; failure paths skip that (the workers are wedged or dead).
        """
        if graceful:
            for p, q in zip(self.procs, self._cmd_qs):
                if p.is_alive():
                    try:
                        q.put_nowait(None)
                    except Exception:  # pragma: no cover - queue broken
                        pass
            for p in self.procs:
                p.join(5.0)
        reap_processes(self.procs)
        self.procs = []
        self.signature = None
        self.dataset = None
        self.model = None
        self.store = None
        self._release_channels()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.shutdown(graceful=False)
        except Exception:
            pass
