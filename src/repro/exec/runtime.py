"""Rank-worker protocol: plan messages and the one rank-worker loop.

Every process-backend rank runs :func:`rank_worker_loop`.  The
:class:`repro.exec.pool.WorkerPool` forks these workers — pickling the
engine's model into each worker exactly once per launch — and then drives
them with small :class:`~repro.exec.base.EpochPlan` messages over per-rank command
queues.  A persistent pool keeps its workers for many epochs; respawn
mode shuts the pool down after each epoch, so the same loop serves one
epoch per fork.  Everything heavy travels through shared memory:

* the graph/feature/label substrate via
  :class:`repro.graph.shm.SharedGraphStore`,
* model weights and optimizer state via a
  :class:`repro.shm.arena.ParamStore` — published by the parent before
  each epoch command, republished by rank 0 after the epoch,
* gradients via :class:`repro.distributed.comm.ProcessWorld` collectives
  (the world is created once per pool and reused across epochs).

An :class:`EpochPlan` therefore only carries the epoch id, the global
batch split (node-id arrays — the one per-epoch payload that genuinely
changes), the rank's core binding, the prefetch knobs and the sampler
object (small; it may be swapped between epochs).

Numerics do not depend on the pool's lifetime: the worker reloads the
parent-published parameters and optimizer state at the top of every
epoch and then drives one :func:`repro.exec.base.rank_steps` generator
(the inline backend drives ``n``), all-reducing each step's gradients
and stepping its optimizer; it reports the generator's
:class:`~repro.exec.base.RankRecord`.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import queue as queue_mod
import sys
import time
import traceback
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from repro.autograd.optim import make_optimizer
from repro.autograd.tensor import Tensor
from repro.distributed.comm import ProcessWorld
from repro.exec.base import EpochPlan, epoch_plan_for_rank, rank_steps
from repro.graph.shm import SharedGraphStore
from repro.obs.trace import SPAN_DELTA_SYNC, SPAN_PLAN, SPAN_RELOAD, SpanRecorder
from repro.platform.corebind import apply_binding, training_affinity
from repro.shm.arena import ParamStore

__all__ = [
    "GraphDeltaPlan",
    "InferPlan",
    "Rebind",
    "WorkerInit",
    "rank_worker_loop",
    "collect_results",
    "encode_epoch_commands",
    "decode_epoch_command",
]


@dataclass
class InferPlan:
    """One forward-only serving batch for one persistent rank worker.

    The online-inference counterpart of :class:`EpochPlan`: no optimizer,
    no collectives — the worker's model template holds the served
    weights (pickled at fork) until a hot snapshot swap bumps
    ``generation``, at which point the worker reloads them from the
    shared :class:`~repro.shm.arena.ParamStore` (one memcpy; the pool is
    never relaunched).  ``node_ids`` is this *rank's* chunk of the
    micro-batch; each node is sampled with an RNG derived purely from
    ``(seed, node)``, so pool predictions are bit-identical to inline
    single-request inference regardless of how requests were batched or
    sharded.  The chunk runs through the one serving forward,
    :func:`repro.serve.frontier.predict_frontier`.

    Results return through a :class:`~repro.shm.arena.BatchArena` slot
    (``slot``; one per rank) when ``arena_spec`` is given and the rows
    fit, else pickled through the result queue.
    """

    seq: int
    node_ids: np.ndarray
    sampler: object
    seed: int
    slot: int = 0
    arena_spec: dict | None = None
    #: served-weight generation; mismatch with the worker's loaded
    #: generation triggers a ParamStore reload before the forward
    generation: int = 0
    #: graph generation this batch was planned against.  A worker whose
    #: synced topology is older raises instead of serving silently-stale
    #: predictions — the parent always broadcasts a GraphDeltaPlan on the
    #: same FIFO queue *before* any InferPlan at the new generation, so a
    #: mismatch means a protocol bug, not a race
    graph_generation: int = 0
    #: :class:`~repro.obs.trace.TraceArena` spec when the engine traces —
    #: the worker attaches once (cached by segment name) and also writes
    #: its spans into its own ring; ``None`` keeps them histogram-only
    trace_spec: dict | None = None


@dataclass
class GraphDeltaPlan:
    """Streaming-update announcement: new graph fragments are published.

    Fire-and-forget — sent by
    :meth:`repro.exec.pool.WorkerPool.broadcast_delta` to **every**
    forked worker (parked ranks included, so a later grow-rebind serves
    current topology) on the per-rank FIFO command queues.  The worker
    attaches the listed fragments it has not mapped yet
    (:meth:`~repro.graph.shm.SharedGraphStore.sync_deltas` — fragments
    are immutable once published, so lazy attach is race-free), rebuilds
    its graph view/feature matrix, and keeps serving; no ack, no
    relaunch, ``pool.launches`` stays flat.  Ordering with respect to
    :class:`InferPlan` is guaranteed by queue FIFO: any plan at
    ``graph_generation >= g`` is enqueued after the delta that created
    generation ``g``.

    Only the newly published fragments travel: every forked worker sees
    every announcement in order, and a worker forked later maps the
    earlier ones from the store spec it attaches.  So an announcement
    costs the same at the 500th delta as at the first.
    """

    #: graph generation after applying every fragment in ``fragment_specs``
    graph_generation: int
    #: specs of the fragments published since the previous announcement:
    #: fragments ``graph_generation - len(fragment_specs)`` onwards
    fragment_specs: list


@dataclass
class Rebind:
    """Resize command: switch a persistent worker to another world size.

    Sent by :meth:`repro.exec.pool.WorkerPool.ensure` when the engine's
    ``n`` shrinks (or grows back) within the pool's forked worker count:
    the recipient adopts the new size on the pool's single
    :class:`ProcessWorld` (whose shared resizable barrier the parent
    already re-counted) and keeps serving — no re-fork, no re-pickle.
    Ranks beyond ``world_size`` are simply never commanded again until
    a later rebind: they park in the idle loop.
    """

    world_size: int


@dataclass
class WorkerInit:
    """One-time launch payload for a rank worker.

    ``model`` is the engine's model, pickled into every rank exactly
    once per pool launch — the template whose parameters are thereafter
    overwritten from the :class:`~repro.shm.arena.ParamStore` every
    epoch.
    """

    rank: int
    world_size: int
    store_spec: dict
    param_spec: dict
    model: object
    optimizer: str
    lr: float
    seed: int
    #: served-weight generation baked into the pickled model — lets a
    #: relaunched pool skip the first InferPlan's redundant reload
    generation: int = 0
    #: the forking process's pid, captured at the fork site: the orphan
    #: watchdog compares against it, and reading getppid() in the child
    #: instead would record the *reaper's* pid if the parent died during
    #: the fork window — masking the orphaning forever
    parent_pid: int = 0


def _run_infer_plan(
    plan: InferPlan, *, rank: int, graph, features: Tensor, model, arena, recorder,
) -> dict:
    """Serve one rank's share (``plan.node_ids``) of a forward-only batch.

    The result carries what the worker's ``recorder`` folded since the
    last plan (``result["spans"]``: this plan's ``plan``/``sample``/
    ``merge``/``forward`` spans, plus any ``reload`` or ``delta_sync``
    before it) and the rank's busy time (``busy_s``).  ``busy_s`` is
    measured in **CPU seconds** (:func:`time.process_time`), not wall: on
    an oversubscribed host the OS time-slices ranks over shared cores and
    every rank's wall clock would read the whole batch, hiding exactly
    the per-rank load imbalance this counter exists to expose.  On a
    dedicated core the two are the same for compute-bound work.
    """
    # lazy import: repro.serve imports this module's package at load time
    from repro.serve.frontier import predict_frontier

    wall0 = time.perf_counter()
    start = time.process_time()
    preds = predict_frontier(
        model, graph, features, plan.sampler, plan.node_ids,
        seed=plan.seed, recorder=recorder,
    )
    busy_s = time.process_time() - start
    recorder.record(SPAN_PLAN, wall0, time.perf_counter(), plan.seq)
    result = {
        "rank": rank, "status": "ok", "seq": plan.seq,
        "spans": recorder.take(), "busy_s": busy_s,
    }
    if arena is not None and preds.size:
        layouts = arena.write(plan.slot, [preds])
        if layouts is not None:
            result["layouts"] = layouts
            return result
    result["preds"] = preds
    return result


def rank_worker_loop(init: WorkerInit, world: ProcessWorld, cmd_q, result_q) -> None:
    """Entry point of every process-backend rank worker.

    Blocks on its command queue between epochs; a ``None`` sentinel shuts
    it down cleanly.  Any epoch failure aborts the world (so peers stuck
    in collectives fail fast), reports the error, and exits — the pool
    treats a failed epoch as fatal and relaunches on the next one.

    ``world`` is the pool's **single** :class:`ProcessWorld`, shared by
    every forked worker at every active size: its
    :class:`~repro.distributed.comm.ResizableBarrier` lets the parent
    resize the shared party count, and a :class:`Rebind` command makes
    this worker adopt the new size locally
    (:meth:`~repro.distributed.comm.ProcessWorld.rebind`) — that is what
    lets the pool shrink/grow within its forked worker count without
    re-forking anyone or pre-creating one world per candidate size.
    Ranks beyond the active size are simply never commanded: they park
    in the idle loop.  :class:`InferPlan` commands run a forward-only
    serving batch: no collectives, no optimizer, results via arena slot
    or queue.

    Orphan watchdog: a SIGKILL'd parent can never send the stop
    sentinel, and a long-lived worker parked in ``get()`` would outlive
    it holding every shared segment open.  The idle loop therefore polls
    its parent pid — re-parenting means the pool's owner is gone, so the
    worker exits and the (inherited) resource tracker reclaims the
    leaked segments once the last holder is gone.
    """
    store = None
    params = None
    arena = None
    arena_name = None
    trace = None
    trace_name = None
    recorder = SpanRecorder()
    generation = init.generation  # weights currently held by the template
    parent_pid = init.parent_pid or os.getppid()
    world.rebind(init.world_size)
    try:
        store = SharedGraphStore.attach(init.store_spec)
        params = ParamStore.attach(init.param_spec)
        # zero-copy views over the shared segments; rebuilt only when a
        # GraphDeltaPlan announces new fragments (graph_generation bump)
        graph = store.graph
        features = Tensor(store.full_features())
        labels = store.full_labels()
        graph_generation = store.graph_generation
        model_template = init.model
        optimizer = make_optimizer(init.optimizer, model_template.parameters(), init.lr)
        while True:
            try:
                cmd = cmd_q.get(timeout=1.0)
            except queue_mod.Empty:
                if os.getppid() != parent_pid:
                    return  # orphaned: the pool's owner died ungracefully
                continue
            if cmd is None:
                return
            if isinstance(cmd, Rebind):
                world.rebind(cmd.world_size)
                continue
            if isinstance(cmd, GraphDeltaPlan):
                t0 = time.perf_counter()
                store.sync_deltas(
                    cmd.fragment_specs,
                    first=cmd.graph_generation - len(cmd.fragment_specs),
                )
                graph = store.graph
                features = Tensor(store.full_features())
                labels = store.full_labels()
                graph_generation = store.graph_generation
                recorder.record(SPAN_DELTA_SYNC, t0, time.perf_counter(), graph_generation)
                continue
            if isinstance(cmd, InferPlan):
                if cmd.graph_generation != graph_generation:
                    raise RuntimeError(
                        f"InferPlan at graph generation {cmd.graph_generation} "
                        f"but worker topology is at {graph_generation} — "
                        f"GraphDeltaPlan ordering violated"
                    )
                if cmd.trace_spec is not None:
                    spec_name = cmd.trace_spec["cursor"].shm_name
                    if trace_name != spec_name:
                        if trace is not None:
                            trace.close()
                        from repro.obs.trace import TraceArena

                        trace = TraceArena.attach(cmd.trace_spec)
                        trace_name = spec_name
                        # keep what the ring-less recorder already folded
                        folded = recorder.take()
                        recorder = trace.recorder(init.rank)
                        recorder.merge(folded)
                if cmd.generation != generation:
                    # hot snapshot swap: the parent republished weights
                    # through the ParamStore before bumping the counter
                    t0 = time.perf_counter()
                    model_template.load_state_dict(params.load()["model"])
                    recorder.record(SPAN_RELOAD, t0, time.perf_counter(), cmd.generation)
                    generation = cmd.generation
                if cmd.arena_spec is not None and arena_name != cmd.arena_spec["shm_name"]:
                    if arena is not None:
                        arena.close()
                    from repro.shm.arena import BatchArena

                    arena = BatchArena.attach(cmd.arena_spec)
                    arena_name = cmd.arena_spec["shm_name"]
                result_q.put(
                    _run_infer_plan(
                        cmd,
                        rank=init.rank,
                        graph=graph,
                        features=features,
                        model=model_template,
                        arena=arena if cmd.arena_spec is not None else None,
                        recorder=recorder,
                    )
                )
                continue
            # commands arrive pre-encoded (see encode_epoch_commands)
            plan = decode_epoch_command(cmd)
            apply_binding(plan.binding)
            # load the parent-published state: the authoritative weights
            # for this epoch
            state = params.load()
            model_template.load_state_dict(state["model"])
            optimizer.load_state_dict(state["optimizer"])
            comm = world.communicator(init.rank)
            steps, record = rank_steps(
                plan, rank=init.rank, world_size=comm.world_size, seed=init.seed,
                graph=graph, features=features, labels=labels, model=model_template,
            )
            with closing(steps):
                if plan.prefetch:
                    # the sampler threads pinned themselves to the
                    # sampling cores; the trainer thread (this one)
                    # re-pins to the training cores, so the two stages
                    # own the binding's core split
                    apply_binding(training_affinity(plan.binding))
                model_params = model_template.parameters()
                for grads in steps:
                    # a rank without a gradient sends zeros, and one flag
                    # per parameter rides in the same payload, so a
                    # parameter no rank has a gradient for keeps None
                    flags = np.array([g is not None for g in grads], dtype=np.float64)
                    *averaged, had = comm.allreduce_mean(
                        [
                            g if g is not None else np.zeros_like(p.data)
                            for p, g in zip(model_params, grads)
                        ]
                        + [flags]
                    )
                    for p, g, h in zip(model_params, averaged, had):
                        p.grad = np.asarray(g, dtype=p.data.dtype) if h else None
                    optimizer.step()
            if init.rank == 0:
                # weights return through shared memory, not the queue
                params.publish(
                    {
                        "model": model_template.state_dict(),
                        "optimizer": optimizer.state_dict(),
                    }
                )
            result_q.put({"rank": init.rank, "status": "ok", "record": record})
    except BaseException as exc:
        world.abort()  # unblock peers stuck in collectives
        result_q.put(
            {
                "rank": init.rank,
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        )
        sys.exit(1)  # quiet exit: the parent reports the queued error
    finally:
        if trace is not None:
            trace.close()
        if arena is not None:
            arena.close()
        if params is not None:
            params.close()
        if store is not None:
            store.close()


def collect_results(
    procs, result_q, world: ProcessWorld, n: int, num_steps: int, timeout: float,
    *, what: str = "process backend epoch",
) -> dict:
    """Drain one result per rank, failing fast on worker death.

    ``timeout`` bounds a single collective (a deadlocked barrier breaks
    within it inside the workers); the whole-epoch budget here scales
    with the number of steps so long, healthy epochs are never killed by
    the per-collective deadline.  Shared by training epochs and
    inference batches — the failure semantics must not differ between
    them.
    """
    results: dict[int, dict] = {}
    deadline = time.monotonic() + timeout * (1 + num_steps)
    while len(results) < n:
        try:
            item = result_q.get(timeout=0.2)
        except queue_mod.Empty:
            dead = [p for p in procs if not p.is_alive() and p.exitcode not in (0, None)]
            if dead:
                world.abort()
                raise RuntimeError(
                    f"rank process died with exit code {dead[0].exitcode} "
                    f"(killed mid-epoch?)"
                ) from None
            if time.monotonic() > deadline:
                world.abort()
                raise TimeoutError(
                    f"{what} exceeded its {timeout * (1 + num_steps):.0f}s budget "
                    f"({len(results)}/{n} ranks reported)"
                )
            continue
        if item["status"] != "ok":
            world.abort()
            # a failing rank breaks its peers' collectives; drain briefly
            # so the *root* error is reported, not a secondary break
            errors = [item]
            deadline_drain = time.monotonic() + 1.0
            while time.monotonic() < deadline_drain:
                try:
                    extra = result_q.get(timeout=0.1)
                except queue_mod.Empty:
                    continue
                if extra["status"] != "ok":
                    errors.append(extra)
            root = next(
                (e for e in errors if "collective broken" not in e["error"]), errors[0]
            )
            raise RuntimeError(
                f"rank {root['rank']} failed: {root['error']}\n{root.get('traceback', '')}"
            )
        results[item["rank"]] = item
    return results


#: the EpochPlan fields that differ between ranks; everything else is
#: rank-invariant and ships in the shared pickle (the dataclass is the
#: schema — encode/decode split along this one list, so a new knob
#: added to EpochPlan + epoch_plan_for_rank transports automatically)
_RANK_FIELDS = ("binding",)


def encode_epoch_commands(engine, epoch: int, plan: list[np.ndarray]) -> list[tuple]:
    """Serialise one epoch's per-rank command-queue payloads.

    The heavy, rank-invariant part — the batch split's node-id arrays
    and the sampler — is pickled **once** and shared by every rank's
    payload (a pickled ``bytes`` ships as a cheap memcpy); only the tiny
    rank-specific remainder (:data:`_RANK_FIELDS`) is pickled per rank.
    Pre-pickling here, not in the queue's feeder thread, also turns an
    unpicklable sampler into an immediate, attributable error instead of
    an opaque epoch timeout.
    """
    rank_plans = [epoch_plan_for_rank(engine, epoch, plan, rank) for rank in range(engine.n)]
    common = pickle.dumps(dataclasses.replace(rank_plans[0], binding=None))
    return [
        (common, pickle.dumps({f: getattr(p, f) for f in _RANK_FIELDS}))
        for p in rank_plans
    ]


def decode_epoch_command(cmd) -> EpochPlan:
    """Inverse of :func:`encode_epoch_commands` (worker side)."""
    common, rank_part = cmd
    return dataclasses.replace(pickle.loads(common), **pickle.loads(rank_part))
