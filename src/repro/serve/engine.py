"""Forward-only inference engine over a model snapshot.

Two execution modes, one algorithm:

``inline``
    Predictions computed in the calling process — the reference path.
``pool``
    The persistent-runtime path: a :class:`repro.exec.pool.WorkerPool`
    of long-lived rank processes over a shared-memory
    :class:`~repro.graph.shm.SharedGraphStore`; each micro-batch's
    missing nodes are split by index into one contiguous chunk per
    active rank, sent as :class:`~repro.exec.runtime.InferPlan` commands,
    and prediction rows
    return through a :class:`~repro.shm.arena.BatchArena` slot per rank
    (pickle fallback for oversized rows, counted in
    :attr:`InferenceEngine.transport`).

Determinism contract
--------------------
A node's prediction is a pure function of ``(weights, seed, node)``:
each node is sampled with ``derive_rng(seed, "serve", node)`` and
forwarded on its own sampled subgraph under
:func:`repro.autograd.inference_mode`, inside a merged shared-frontier
forward (:mod:`repro.serve.frontier`) that preserves every request's
numerics bit-for-bit.  Batch composition and rank sharding therefore
cannot change any prediction — pool mode is bit-identical to inline
single-request inference, which is also what makes the LRU
:class:`~repro.serve.cache.EmbeddingCache` exact rather than
approximate, and what lets :meth:`InferenceEngine.reload` hot-swap
weights into a live pool (generation-guarded ParamStore republish, no
relaunch) with nothing but the cache to invalidate.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field

import numpy as np

from repro.autograd.optim import make_optimizer
from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor, inference_mode
from repro.exec.pool import WorkerPool
from repro.graph.delta import DeltaFragment, GraphDelta, LayeredCSR, reverse_reachable
from repro.graph.shm import SharedGraphStore
from repro.obs.metrics import MetricRegistry
from repro.obs.trace import (
    SPAN_CACHE,
    SPAN_PREDICT,
    NameTable,
    SpanRecorder,
    TraceArena,
    span_metric,
)
from repro.serve.cache import EmbeddingCache
from repro.serve.frontier import empty_predictions, predict_frontier
from repro.serve.snapshot import ModelSnapshot
from repro.shm.arena import BatchArena, TransportStats
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive_int

__all__ = ["DeltaReceipt", "InferenceEngine", "PhaseView", "RankStats", "predict_nodes"]


@dataclass(frozen=True)
class DeltaReceipt:
    """What one :meth:`InferenceEngine.apply_delta` call did."""

    #: graph generation after this delta (== number of fragments applied)
    generation: int
    new_edges: int
    new_nodes: int
    #: size of the reverse-reachable set whose cached predictions may change
    affected: int
    #: cache entries actually dropped (≤ affected; full flush drops all)
    invalidated: int


class PhaseView:
    """Read-only seconds per serving phase, summed from the
    ``serve.phase.<phase>_s`` histograms the engine's recorder folds.

    In pool mode the sample/merge/forward sums add up concurrent ranks'
    spans (rank-seconds, not wall time) — per-phase *shares* remain
    meaningful either way.
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics: MetricRegistry):
        self._metrics = metrics

    def _total(self, phase: str) -> float:
        hist = self._metrics.get(span_metric(phase))
        return hist.sum if hist is not None else 0.0

    sample_s = property(lambda self: self._total("sample"))
    merge_s = property(lambda self: self._total("merge"))
    forward_s = property(lambda self: self._total("forward"))
    cache_s = property(lambda self: self._total("cache"))

    def snapshot(self) -> tuple[float, float, float, float]:
        return (self.sample_s, self.merge_s, self.forward_s, self.cache_s)


@dataclass
class RankStats:
    """Per-rank busy-time accounting for pool inference.

    One instance rides on the inference engine;
    :meth:`repro.exec.pool.WorkerPool.run_infer` folds each micro-batch's
    per-rank busy seconds into it (inline mode books everything on rank
    0).  ``imbalance`` — max over mean busy time — is the load-balance
    figure of merit: 1.0 is a perfectly level batch schedule, ``n`` is
    one rank doing all the work.  Kept apart from the phase histograms
    (which sum CPU time across ranks) because balance needs the
    *per-rank* split, not the aggregate.
    """

    busy_s: list[float] = field(default_factory=list)
    batches: int = 0

    @classmethod
    def for_ranks(cls, n: int) -> "RankStats":
        return cls(busy_s=[0.0] * max(1, int(n)))

    def add_batch(self, busy_s) -> None:
        """Fold one micro-batch's per-rank busy seconds into the totals."""
        # a pool resize mid-run can widen the rank set; keep old totals
        self.busy_s.extend([0.0] * (len(busy_s) - len(self.busy_s)))
        for rank, b in enumerate(busy_s):
            self.busy_s[rank] += float(b)
        self.batches += 1

    @property
    def imbalance(self) -> float:
        """Max-over-mean busy time across ranks (1.0 = perfectly level)."""
        if not self.busy_s:
            return 1.0
        mean = sum(self.busy_s) / len(self.busy_s)
        return max(self.busy_s) / mean if mean > 0 else 1.0

    def snapshot(self) -> tuple:
        return (tuple(self.busy_s), self.batches)

    @staticmethod
    def delta(before: tuple, after: tuple) -> "RankStats":
        """The counters accumulated between two :meth:`snapshot` calls."""
        busy_b, batches_b = before
        busy_a, batches_a = after
        busy = [
            (busy_a[i] if i < len(busy_a) else 0.0)
            - (busy_b[i] if i < len(busy_b) else 0.0)
            for i in range(max(len(busy_a), len(busy_b)))
        ]
        return RankStats(busy_s=busy, batches=batches_a - batches_b)


def predict_nodes(
    model,
    graph,
    features: Tensor,
    sampler,
    node_ids,
    *,
    seed: int,
) -> np.ndarray:
    """Per-node reference predictions: every node sampled and forwarded alone.

    Every node is sampled independently with the RNG stream
    ``(seed, "serve", node)`` and forwarded on its own subgraph.  This
    is the oracle that the tests of
    :func:`~repro.serve.frontier.predict_frontier` (the serving forward)
    and the perf ledger's correctness check compare against.  Runs the
    model in eval mode under
    :func:`~repro.autograd.tensor.inference_mode` (no tape, no dropout)
    and restores the training flag afterwards.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if node_ids.size == 0:
        # empty requests still report the model's output width so
        # callers can stack/concatenate results unconditionally
        return empty_predictions(model)
    was_training = model.training
    model.eval()
    rows: list[np.ndarray] = []
    try:
        with inference_mode():
            for node in node_ids:
                batch = sampler.sample(
                    graph,
                    np.asarray([node], dtype=np.int64),
                    rng=derive_rng(seed, "serve", int(node)),
                )
                x = gather_rows(features, batch.input_ids)
                rows.append(model(batch.blocks, x).data[0].copy())
    finally:
        model.train(was_training)
    return np.stack(rows)


class InferenceEngine:
    """Online inference over a :class:`ModelSnapshot` + dataset.

    Parameters
    ----------
    snapshot:
        The frozen model/sampler export to serve.
    dataset:
        The :class:`~repro.graph.datasets.GNNDataset` providing the graph
        and node features to sample/aggregate over.
    mode:
        ``"inline"`` (in-process) or ``"pool"`` (persistent worker pool
        over shared memory).
    batch_mode:
        Only ``"frontier"`` (the one serving forward, see
        :mod:`repro.serve.frontier`) is accepted; the per-node mode was
        retired.
    shard_policy:
        Only ``"chunk"`` (the one request→rank placement: an index split
        into contiguous chunks) is accepted; the skew-aware policies were
        retired.
    workers:
        Pool mode: number of rank workers sharing each micro-batch.
    cache_entries:
        LRU prediction-cache budget (``0`` disables the cache).
    timeout, start_method:
        Pool-mode knobs, as in the process execution backend.
    seed:
        Serving RNG stream (defaults to the snapshot's training seed);
        part of the per-node determinism contract.
    arena_slot_bytes:
        Per-rank result-slot size for the prediction transport; rows
        that do not fit fall back to queue pickling (counted in
        :attr:`transport`).
    staleness_budget:
        How many affecting graph deltas a cached prediction may survive
        before it stops being servable (default 0: evict eagerly, exact
        serving).  Positive budgets trade freshness for hit rate during
        update storms; stale serves are counted in
        ``cache.stats.stale_hits``.
    delta_invalidation:
        ``"scoped"`` (default) evicts only the delta's reverse-reachable
        set on :meth:`apply_delta`; ``"flush"`` drops the whole cache —
        the baseline the streaming benchmark compares against.
    tracing, trace_capacity:
        ``tracing=True`` allocates a shared-memory
        :class:`~repro.obs.trace.TraceArena` (one ``trace_capacity``-slot
        ring per pool rank plus one for the engine thread) and every span
        the serving path times — sample/merge/forward/cache/barrier — is
        also written there, exportable as Chrome trace JSON
        (``serve-bench --trace``).  Off by default; the spans are timed
        and folded into :attr:`metrics` either way, so tracing adds only
        the rings.  Purely observational; predictions are bit-identical
        either way.

    A pool-mode engine owns its :class:`WorkerPool` (``workers`` is
    fixed, so the pool never parks) and its shared-memory segments
    (graph store, result arena, the pool's channels): call
    :meth:`close` or use the engine as a context manager.
    """

    MODES = ("inline", "pool")
    DELTA_INVALIDATION = ("scoped", "flush")

    def __init__(
        self,
        snapshot: ModelSnapshot,
        dataset,
        *,
        mode: str = "inline",
        batch_mode: str = "frontier",
        shard_policy: str = "chunk",
        workers: int = 1,
        cache_entries: int = 4096,
        timeout: float = 120.0,
        start_method: str | None = None,
        seed: int | None = None,
        arena_slot_bytes: int = 1 << 20,
        staleness_budget: int = 0,
        delta_invalidation: str = "scoped",
        tracing: bool = False,
        trace_capacity: int = 1 << 14,
    ):
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {mode!r}")
        if batch_mode != "frontier":
            raise ValueError(
                f"batch_mode {batch_mode!r} is not supported: the per-node "
                f"mode was retired; every micro-batch runs the one frontier "
                f"forward (batch_mode='frontier')"
            )
        if delta_invalidation not in self.DELTA_INVALIDATION:
            raise ValueError(
                f"delta_invalidation must be one of {self.DELTA_INVALIDATION}, "
                f"got {delta_invalidation!r}"
            )
        if shard_policy != "chunk":
            raise ValueError(
                f"shard_policy {shard_policy!r} is not supported: the "
                f"skew-aware shard policies were retired; pool batches "
                f"are split into contiguous chunks (shard_policy='chunk')"
            )
        self.snapshot = snapshot
        self.dataset = dataset
        self.mode = mode
        self.delta_invalidation = delta_invalidation
        self.model = snapshot.build_model()
        self.sampler = snapshot.build_sampler()
        self.seed = int(snapshot.seed if seed is None else seed)
        self.cache = EmbeddingCache(cache_entries, staleness_budget=staleness_budget)
        self.transport = TransportStats()
        self.features = Tensor(dataset.features)
        self.requests = 0
        #: applied delta fragments, in order; the served graph is the
        #: dataset's base CSR overlaid with these (a LayeredCSR view)
        self._fragments: list[DeltaFragment] = []
        self._graph = dataset.graph
        #: graph generation counter: bumped by every :meth:`apply_delta`;
        #: rides each InferPlan as a defensive guard and tags the workers'
        #: synced topology
        self.graph_generation = 0
        #: the unified metrics sink: span histograms, batcher flush
        #: counters, transport counters — everything this engine's
        #: serving path accounts for, exportable as one versioned
        #: document (``repro.obs.export.metrics_document``)
        self.metrics = MetricRegistry()
        #: cumulative per-phase service-time breakdown
        #: (sample/merge/forward/cache), read from :attr:`metrics`
        self.phases = PhaseView(self.metrics)
        #: per-rank busy CPU time (pool mode; the
        #: inline engine books everything on rank 0) — the imbalance
        #: signal the workload driver snapshots into ServingReport
        self.rank_stats = RankStats.for_ranks(
            check_positive_int(workers, "workers") if mode == "pool" else 1
        )
        #: weight generation counter: bumped by every hot :meth:`reload`;
        #: rides each InferPlan so pool workers reload from the shared
        #: ParamStore exactly when the served weights changed
        self.generation = 0
        self._stale_pool_params = False
        self._closed = False
        # engine-shim fields the WorkerPool launch protocol reads; the
        # optimizer is inert (InferPlan never steps) but gives the
        # ParamStore channel its frozen layout
        self.n = check_positive_int(workers, "workers") if mode == "pool" else 1
        self.optimizer_name = "sgd"
        self.lr = 1e-3
        self.optimizer = make_optimizer(self.optimizer_name, self.model.parameters(), self.lr)
        self._pool: WorkerPool | None = None
        self._store: SharedGraphStore | None = None
        self._arena: BatchArena | None = None
        if mode == "pool":
            self._pool = WorkerPool(mp.get_context(start_method), timeout=timeout)
            slot_bytes = check_positive_int(arena_slot_bytes, "arena_slot_bytes")
            self._arena = BatchArena.create(num_slots=self.n, slot_bytes=max(16, slot_bytes))
        #: the one timer of the serving path: folds every span into
        #: :attr:`metrics`.  With tracing on it also writes a ring: pool
        #: mode allocates one ring per worker rank plus one for the
        #: engine thread; inline mode shares a single ring.  Purely
        #: observational — the parity tests assert traced predictions
        #: are bit-identical to untraced ones.
        self.tracing = bool(tracing)
        self.trace_names = NameTable()
        self.trace_arena: TraceArena | None = None
        self.recorder = SpanRecorder(self.metrics)
        self._trace_worker_ranks = self.n if mode == "pool" else 0
        if self.tracing:
            self.trace_arena = TraceArena.for_ranks(
                self._trace_worker_ranks + 1,
                capacity=check_positive_int(trace_capacity, "trace_capacity"),
            )
            self.recorder = self.trace_arena.recorder(
                self._trace_worker_ranks, self.metrics
            )

    # ------------------------------------------------------------------
    @property
    def pool(self) -> WorkerPool | None:
        """The live worker pool, if any (diagnostics/tests)."""
        return self._pool

    def trace_rank_labels(self) -> dict[int, str]:
        """Ring index -> display label for trace export."""
        labels = {rank: f"rank {rank}" for rank in range(self._trace_worker_ranks)}
        labels[self._trace_worker_ranks] = "engine"
        return labels

    def _ensure_pool(self) -> None:
        if self._store is None or self._store.closed:
            self._store = SharedGraphStore.from_dataset(self.dataset)
        # catch the store up on deltas applied while it did not exist —
        # a fresh launch then ships them inside the store spec
        for frag in self._fragments[self._store.graph_generation :]:
            self._store.append_fragment(frag)
        if self._pool.ensure(self, self._store):
            # a fresh launch pickles the current (post-reload) weights
            # and seeds the ParamStore from them — nothing to republish
            self._stale_pool_params = False
        elif self._stale_pool_params:
            # hot swap into a live pool: one ParamStore memcpy, no forks
            self._pool.publish(self)
            self._stale_pool_params = False

    def warm_up(self) -> None:
        """Pay the launch tax up front (pool fork + shm mapping).

        Without this the first served request's latency includes the
        pool launch — correct for a cold start, noise when a bench
        compares batching/cache knobs.  Touches neither the cache nor
        the counters; a no-op in inline mode and on a warm pool.
        """
        if self.mode == "pool":
            self._ensure_pool()

    # ------------------------------------------------------------------
    def predict(self, node_ids) -> np.ndarray:
        """Predictions for ``node_ids`` (one row each, duplicates allowed).

        Per-request cache lookups first; the unique missing nodes are
        computed once — inline or sharded across the pool — inserted,
        and the rows assembled back into request order.
        """
        if self._closed:
            raise ValueError("inference engine is closed")
        node_ids = np.atleast_1d(np.asarray(node_ids, dtype=np.int64))
        if node_ids.size == 0:
            return np.zeros((0, self.snapshot.out_dim), dtype=np.float32)
        self.requests += len(node_ids)
        recorder = self.recorder
        start = time.perf_counter()
        rows: dict[int, np.ndarray] = {}
        missing: list[int] = []
        seen: set[int] = set()
        for node in node_ids:
            node = int(node)
            if node in seen:
                continue  # duplicate within the batch: one lookup, one row
            seen.add(node)
            row = self.cache.get(node)
            if row is None:
                missing.append(node)
            else:
                rows[node] = row
        recorder.record(SPAN_CACHE, start, time.perf_counter(), len(node_ids))
        if missing:
            preds = self._compute(np.asarray(missing, dtype=np.int64))
            mid = time.perf_counter()
            for node, row in zip(missing, preds):
                self.cache.put(node, row)
                rows[node] = row
            recorder.record(SPAN_CACHE, mid, time.perf_counter(), len(missing))
        result = np.stack([rows[int(node)] for node in node_ids])
        recorder.record(SPAN_PREDICT, start, time.perf_counter(), len(node_ids))
        return result

    def _compute(self, miss_ids: np.ndarray) -> np.ndarray:
        if self.mode == "inline":
            # CPU seconds, matching the pool ranks' busy_s measurement
            start = time.process_time()
            preds = predict_frontier(
                self.model,
                self._graph,
                self.features,
                self.sampler,
                miss_ids,
                seed=self.seed,
                recorder=self.recorder,
            )
            self.rank_stats.add_batch([time.process_time() - start])
            return preds
        self._ensure_pool()
        return self._pool.run_infer(
            miss_ids,
            self.sampler,
            seed=self.seed,
            arena=self._arena,
            transport=self.transport,
            generation=self.generation,
            graph_generation=self.graph_generation,
            rank_stats=self.rank_stats,
            trace_spec=self.trace_arena.spec if self.trace_arena is not None else None,
            recorder=self.recorder,
        )

    # ------------------------------------------------------------------
    def apply_delta(self, delta: GraphDelta) -> DeltaReceipt:
        """Append edges/nodes to the *live* serving deployment.

        The delta is normalised to a :class:`DeltaFragment`, layered over
        the served graph view (no rebuild of the base CSR), published to
        the shared-memory store, and — when a pool is live — announced to
        every worker with a fire-and-forget
        :class:`~repro.exec.runtime.GraphDeltaPlan` on the FIFO command
        queues, so ``pool.launches`` stays flat.

        Cache handling is the scoped-invalidation story: only the
        reverse-reachable set within the sampler's hop depth of the
        mutated vertices can have changed predictions, so only those
        entries are invalidated (``delta_invalidation="flush"`` drops
        everything instead, as a baseline).  Post-delta predictions are
        bit-identical to a cold engine built on the materialised merged
        graph (:func:`repro.graph.delta.materialize_dataset`).
        """
        if self._closed:
            raise ValueError("inference engine is closed")
        frag = DeltaFragment.from_delta(
            delta,
            num_nodes=self._graph.num_nodes,
            feature_dim=int(self.dataset.features.shape[1]),
            feature_dtype=self.dataset.features.dtype,
            label_dtype=self.dataset.labels.dtype,
        )
        self._fragments.append(frag)
        self._graph = LayeredCSR(self.dataset.graph, list(self._fragments))
        if frag.num_new_nodes:
            parts = [self.dataset.features] + [
                f.features for f in self._fragments if f.num_new_nodes
            ]
            self.features = Tensor(np.concatenate(parts))
        self.graph_generation += 1
        # hop depth of the sampler's receptive field: num_layers for the
        # layered samplers, fanout count for subgraph samplers (ShaDow
        # induces over the full node set, one hop deeper than its growth
        # loop) — the max is a safe scope for either
        hops = max(
            int(self.sampler.num_layers),
            len(getattr(self.sampler, "fanouts", ()) or ()),
        )
        affected = reverse_reachable(self._graph, frag.rows, hops)
        if self.delta_invalidation == "scoped":
            invalidated = self.cache.invalidate(affected)
        else:
            invalidated = self.cache.invalidate(None)
        if self._store is not None and not self._store.closed:
            self._store.append_fragment(frag)
            if self._pool is not None and self._pool.alive:
                self._pool.broadcast_delta(
                    self.graph_generation, self._store.delta_specs[-1:]
                )
        return DeltaReceipt(
            generation=self.graph_generation,
            new_edges=frag.num_new_edges,
            new_nodes=frag.num_new_nodes,
            affected=len(affected),
            invalidated=invalidated,
        )

    # ------------------------------------------------------------------
    def reload(self, snapshot: ModelSnapshot) -> None:
        """Hot-swap the served weights from ``snapshot``; no relaunch.

        The snapshot must be parameter-compatible with the one being
        served (same model topology — the frozen :class:`ParamStore`
        layout and the pool's :func:`~repro.exec.pool.pool_signature`
        both depend on it).  Weights are loaded into the live model
        object in place, the prediction cache is invalidated by bumping
        its weight tag (cached rows belong to the old weights; the graph
        is unchanged, so an O(entries) flush would be wasted work — tag
        mismatches are dropped lazily on lookup), and the generation
        counter is bumped; pool mode republishes through the existing
        ParamStore channel on the next batch — ``pool.launches`` stays
        flat.  The serving RNG stream (``seed``) is deliberately left
        unchanged: it is the engine's identity, not the snapshot's.
        """
        if self._closed:
            raise ValueError("inference engine is closed")
        current = self.model.state_dict()
        if set(snapshot.state) != set(current) or any(
            np.asarray(snapshot.state[k]).shape != current[k].shape for k in current
        ):
            raise ValueError(
                "incompatible snapshot: parameter topology differs from the "
                "served model (hot swap needs matching names and shapes)"
            )
        self.model.load_state_dict(snapshot.state)
        self.snapshot = snapshot
        self.sampler = snapshot.build_sampler()
        self.cache.bump_weight_tag()
        self.generation += 1
        self._stale_pool_params = True

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release serving resources; idempotent.

        Shuts the pool down and unlinks the graph store, result arena and
        trace rings — all of them this engine's own.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown()
        if self._arena is not None:
            self._arena.unlink()
            self._arena = None
        if self.trace_arena is not None:
            self.recorder = SpanRecorder(self.metrics)
            self.trace_arena.unlink()
            self.trace_arena = None
        if self._store is not None and not self._store.closed:
            self._store.unlink()
        self._store = None

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
