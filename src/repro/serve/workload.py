"""Synthetic serving traffic: Poisson arrivals, Zipf popularity, SLO report.

The driver measures an :class:`~repro.serve.engine.InferenceEngine`
under realistic request dynamics without real sleeping: arrivals and
queueing run on a **virtual clock** (deterministic in the seed) while
each flushed batch's service time is the *measured* wall time of the
real ``predict`` call.  Latency of a request is then

    (flush time + measured service time) - arrival time

on the virtual axis — batching delay, queueing behind a busy server and
real compute all included, yet the bench is fast (no idle waiting) and
the arrival process is exactly reproducible.

Two traffic shapes:

* **open loop** — Poisson arrivals at ``rate_rps``; load is independent
  of the server, so an undersized configuration visibly builds queue and
  blows up tail latency (the p99-vs-throughput trade-off of Fig. 9).
* **closed loop** — ``concurrency`` clients each issue the next request
  the moment the previous completes; measures saturated throughput.

Node popularity is Zipf-skewed (:func:`zipf_nodes`) so the prediction
cache actually matters: a handful of hot nodes dominate the stream.

Admission control: ``queue_limit`` bounds the pending queue with a
shed-oldest policy (:meth:`~repro.serve.batcher.MicroBatcher.shed_oldest`).
Past saturation an open loop would otherwise grow its queue — and every
request's latency — without bound; with a limit, overflow arrivals push
the longest-waiting request out, ``ServingReport.shed_count`` records
the refusals, and the served tail stays bounded.

Streaming updates: ``updates`` interleaves a timed stream of
:class:`~repro.graph.delta.GraphDelta`\\ s (see :func:`make_update_stream`
for a Poisson generator) into the read traffic — each is applied with
:meth:`~repro.serve.engine.InferenceEngine.apply_delta` when the virtual
clock passes its timestamp, its measured wall time occupies the server,
and the report gains freshness accounting: how many updates landed, how
long they took, how many requests were served from within-budget stale
cache entries, and how many cache entries invalidation dropped.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, fields, replace

import numpy as np

from repro.graph.delta import GraphDelta
from repro.serve.batcher import MicroBatcher, Request
from repro.serve.cache import CacheStats
from repro.serve.engine import RankStats
from repro.shm.arena import TransportStats
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "SERVING_REPORT_SCHEMA_VERSION",
    "ServingReport",
    "slo_objective",
    "zipf_nodes",
    "poisson_arrivals",
    "make_update_stream",
    "run_serving_workload",
    "merge_reports",
]


def zipf_nodes(
    catalog: np.ndarray, num_requests: int, *, alpha: float = 1.1, rng=None
) -> np.ndarray:
    """``num_requests`` node ids drawn Zipf(``alpha``)-skewed from ``catalog``.

    Popularity rank is a seeded permutation of the catalog (so "which
    node is hot" is deterministic but not trivially the lowest id);
    ``alpha=0`` degenerates to uniform traffic.
    """
    catalog = np.asarray(catalog, dtype=np.int64)
    if catalog.size == 0:
        raise ValueError("empty node catalog")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    rng = rng if rng is not None else np.random.default_rng()
    ranked = rng.permutation(catalog)
    weights = 1.0 / np.arange(1, len(ranked) + 1, dtype=np.float64) ** alpha
    probs = weights / weights.sum()
    return ranked[rng.choice(len(ranked), size=int(num_requests), p=probs)]


def poisson_arrivals(num_requests: int, rate_rps: float, *, rng=None) -> np.ndarray:
    """Cumulative Poisson-process arrival times (seconds) at ``rate_rps``."""
    check_positive_int(num_requests, "num_requests")
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    rng = rng if rng is not None else np.random.default_rng()
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=int(num_requests)))


def make_update_stream(
    num_nodes: int,
    *,
    num_updates: int,
    rate_ups: float,
    edges_per_update: int = 4,
    new_node_every: int = 0,
    feature_dim: int = 0,
    rng=None,
) -> list[tuple[float, GraphDelta]]:
    """Poisson-timed stream of random :class:`GraphDelta`\\ s for a workload.

    Each update appends ``edges_per_update`` edges between uniformly drawn
    endpoints; when ``new_node_every`` is ``k > 0``, every ``k``-th update
    additionally appends one node (standard-normal ``feature_dim``
    features, label 0) and wires its edges to land on it, so later
    updates — and Zipf reads, if the caller extends the catalog — can
    reach it.  The stream is deterministic in ``rng`` and sorted by
    timestamp, ready for ``run_serving_workload(updates=...)``.
    """
    check_positive_int(num_updates, "num_updates")
    check_positive_int(edges_per_update, "edges_per_update")
    if rate_ups <= 0:
        raise ValueError(f"rate_ups must be > 0, got {rate_ups}")
    if new_node_every and feature_dim <= 0:
        raise ValueError("new_node_every > 0 requires feature_dim > 0")
    rng = rng if rng is not None else np.random.default_rng()
    times = poisson_arrivals(num_updates, rate_ups, rng=rng)
    stream: list[tuple[float, GraphDelta]] = []
    count = int(num_nodes)
    for i, t in enumerate(times):
        adds_node = bool(new_node_every) and (i + 1) % new_node_every == 0
        src = rng.integers(0, count, size=edges_per_update).astype(np.int64)
        if adds_node:
            # the fresh node (id == current count) receives every new edge
            dst = np.full(edges_per_update, count, dtype=np.int64)
            features = rng.standard_normal((1, feature_dim)).astype(np.float32)
            labels = np.zeros(1, dtype=np.int64)
            count += 1
        else:
            dst = rng.integers(0, count, size=edges_per_update).astype(np.int64)
            features = None
            labels = None
        stream.append(
            (float(t), GraphDelta(src=src, dst=dst, features=features, labels=labels))
        )
    return stream


#: version stamp for :meth:`ServingReport.as_dict` / ``--report-json``
#: documents.  Bump when a key is renamed, removed, or changes meaning;
#: adding new keys is backward compatible and does not bump it.
SERVING_REPORT_SCHEMA_VERSION = 2


@dataclass
class ServingReport:
    """One workload run's outcome: throughput, tail latency, cache/arena.

    ``requests`` counts everything submitted; ``shed_count`` of those
    were refused by admission control and carry ``NaN`` latencies — all
    latency statistics and ``throughput_rps`` cover the *served*
    requests only, while :meth:`slo_attainment` counts a shed request
    as an SLO miss (the client got an error, not an answer).
    """

    mode: str
    requests: int
    duration_s: float  # virtual makespan: first arrival epoch to last completion
    service_s: float  # summed real wall time inside predict()
    throughput_rps: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_batch: float
    full_flushes: int
    deadline_flushes: int
    drain_flushes: int
    #: this run's cache lookups and result transports (per-run deltas of
    #: the engine's lifetime counters, like every other field)
    cache: CacheStats
    transport: TransportStats
    #: requests refused by the bounded queue's shed-oldest policy
    shed_count: int = 0
    #: peak pending-queue length observed after admission
    max_queue: int = 0
    #: per-phase breakdown of the engine's work during this run (ms):
    #: frontier sampling, merged-layout assembly, model forward, and
    #: cache lookup/insert.  In pool mode sample/merge/forward sum
    #: across concurrent ranks (aggregate CPU ms, not wall clock), so
    #: compare *shares*, not absolute times, against ``service_s``.
    sample_ms: float = 0.0
    merge_ms: float = 0.0
    forward_ms: float = 0.0
    cache_ms: float = 0.0
    #: graph deltas applied inside this run (streaming-update workloads)
    updates_applied: int = 0
    #: real wall time spent inside ``engine.apply_delta`` (ms); occupies
    #: the virtual-clock server just like predict() service time does
    update_ms: float = 0.0
    #: cache hits served from an entry ``apply_delta`` had marked stale
    #: but the engine's ``staleness_budget`` still allowed out the door
    stale_served: int = 0
    #: cache entries dropped by delta invalidation (scoped or flush)
    invalidated: int = 0
    #: engine graph generation when the run finished
    graph_generation: int = 0
    #: per-rank CPU seconds spent inside the forward, summed over
    #: batches (inline mode books everything on a single rank 0 entry)
    rank_busy_ms: list = field(default_factory=list)
    #: max-over-mean per-rank busy time (1.0 = perfectly level)
    imbalance: float = 1.0
    #: per-request latencies (seconds, request-id order; NaN = shed)
    latencies_s: np.ndarray = field(repr=False, default=None)
    #: schema stamp carried on the report itself so :func:`merge_reports`
    #: can refuse mixed-version inputs; ``as_dict`` emits it verbatim
    schema_version: int = SERVING_REPORT_SCHEMA_VERSION

    @property
    def served(self) -> int:
        """Requests that actually received a prediction."""
        return self.requests - self.shed_count

    @property
    def freshness(self) -> float:
        """Fraction of served requests answered with delta-fresh data.

        A request counts as stale when its cache hit came from an entry
        invalidated by an earlier ``apply_delta`` but still within the
        engine's ``staleness_budget``.  1.0 when nothing was served.
        """
        if self.served <= 0:
            return 1.0
        return 1.0 - self.stale_served / self.served

    @property
    def sampling_share(self) -> float:
        """Fraction of tracked engine time spent drawing frontiers.

        Computed against the phase total rather than ``service_s`` so the
        share stays meaningful in pool mode, where the phase counters
        aggregate CPU time across concurrent ranks.
        """
        total = self.sample_ms + self.merge_ms + self.forward_ms + self.cache_ms
        return self.sample_ms / total if total > 0 else 0.0

    def slo_attainment(self, slo_ms: float) -> float:
        """Fraction of *all* requests completed within ``slo_ms``.

        Shed requests count as misses: ``NaN <= slo`` is False.
        """
        if self.latencies_s is None or not len(self.latencies_s):
            return 0.0
        with np.errstate(invalid="ignore"):
            return float(np.mean(self.latencies_s * 1e3 <= slo_ms))

    def as_dict(self, slo_ms: float | None = None) -> dict:
        """The full report as one JSON-serialisable document.

        Everything a dashboard needs in plain Python scalars — the raw
        latency array is folded into its summary statistics rather than
        dumped.  Pass ``slo_ms`` to include SLO attainment at that
        target (both overall and freshness-weighted).
        """
        doc = {
            "schema_version": self.schema_version,
            "mode": self.mode,
            "requests": self.requests,
            "served": self.served,
            "shed_count": self.shed_count,
            "duration_s": self.duration_s,
            "service_s": self.service_s,
            "throughput_rps": self.throughput_rps,
            "latency_ms": {
                "mean": self.mean_ms,
                "p50": self.p50_ms,
                "p95": self.p95_ms,
                "p99": self.p99_ms,
            },
            "batching": {
                "mean_batch": self.mean_batch,
                "full_flushes": self.full_flushes,
                "deadline_flushes": self.deadline_flushes,
                "drain_flushes": self.drain_flushes,
                "max_queue": self.max_queue,
            },
            "phases_ms": {
                "sample": self.sample_ms,
                "merge": self.merge_ms,
                "forward": self.forward_ms,
                "cache": self.cache_ms,
                "sampling_share": self.sampling_share,
            },
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "stale_hits": self.cache.stale_hits,
                "invalidated": self.cache.invalidated,
                "hit_rate": self.cache.hit_rate,
            },
            "transport": {
                "arena_hits": self.transport.arena_hits,
                "pickle_fallbacks": self.transport.pickle_fallbacks,
                "hit_rate": self.transport.hit_rate,
            },
            "balance": {
                "rank_busy_ms": [float(b) for b in self.rank_busy_ms],
                "imbalance": self.imbalance,
            },
            "freshness": {
                "updates_applied": self.updates_applied,
                "update_ms": self.update_ms,
                "stale_served": self.stale_served,
                "invalidated": self.invalidated,
                "graph_generation": self.graph_generation,
                "fresh_fraction": self.freshness,
            },
        }
        if slo_ms is not None:
            doc["slo"] = {
                "target_ms": float(slo_ms),
                "attainment": self.slo_attainment(slo_ms),
            }
        return doc


def slo_objective(report, *, slo_ms: float, penalty: float = 10.0) -> float:
    """Scalar score (lower is better) for one serving measurement.

    ``(1 + penalty · relative p99 overshoot) / throughput`` — inside the
    SLO this is pure inverse throughput; every percent of p99 overshoot
    multiplies the score, so a configuration that misses the deadline
    cannot trade tail latency away linearly for throughput.
    """
    if slo_ms <= 0:
        raise ValueError(f"slo_ms must be > 0, got {slo_ms}")
    if penalty <= 0:
        raise ValueError(f"penalty must be > 0, got {penalty}")
    overshoot = max(0.0, report.p99_ms / float(slo_ms) - 1.0)
    return (1.0 + float(penalty) * overshoot) / max(report.throughput_rps, 1e-9)


def _percentile_stats(served_lat_s: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, p50, p95, p99) in ms over the served latencies (0s if none).

    NaN entries (shed requests) are filtered here as well as at the call
    sites, so a report whose requests were *all* shed — e.g. a
    ``queue_limit`` run or merged segment that served nothing — reports
    clean zeros instead of NaN-propagating percentiles (and no
    RuntimeWarning).
    """
    served_lat_s = np.asarray(served_lat_s, dtype=np.float64)
    served_lat_s = served_lat_s[~np.isnan(served_lat_s)]
    if not len(served_lat_s):
        return 0.0, 0.0, 0.0, 0.0
    lat_ms = served_lat_s * 1e3
    return (
        float(lat_ms.mean()),
        float(np.percentile(lat_ms, 50)),
        float(np.percentile(lat_ms, 95)),
        float(np.percentile(lat_ms, 99)),
    )


def run_serving_workload(
    engine,
    *,
    num_requests: int = 256,
    rate_rps: float = 500.0,
    zipf_alpha: float = 1.1,
    max_batch: int = 8,
    max_wait_ms: float = 2.0,
    closed_loop: bool = False,
    concurrency: int = 8,
    queue_limit: int | None = None,
    nodes: np.ndarray | None = None,
    updates: list[tuple[float, GraphDelta]] | None = None,
    seed: int = 0,
) -> ServingReport:
    """Drive ``engine`` through one synthetic workload; returns the report.

    ``nodes`` restricts the request catalog (default: the dataset's
    validation split, falling back to all nodes when it is empty).  The
    run is single-server:
    batches execute back to back on the engine, exactly how the engine
    would sit behind one dispatch loop.
    ``queue_limit`` bounds the pending queue (shed-oldest admission
    control); ``None`` admits everything.

    ``updates`` interleaves graph deltas with the reads: a time-sorted
    ``[(virtual_time_s, GraphDelta), ...]`` stream (see
    :func:`make_update_stream`).  Each delta is applied via
    ``engine.apply_delta`` once the virtual clock reaches its timestamp;
    the *measured* wall time of the apply occupies the server, exactly
    like predict() service time, so update cost shows up in read tail
    latency.  Updates left after the last read completes are dropped.
    """
    check_positive_int(num_requests, "num_requests")
    if queue_limit is not None:
        check_positive_int(queue_limit, "queue_limit")
    pending_updates = deque(sorted(updates, key=lambda tu: tu[0])) if updates else deque()
    rng = derive_rng(seed, "serve-workload")
    if nodes is None:
        nodes = engine.dataset.val_idx
        if len(nodes) == 0:
            nodes = np.arange(engine.dataset.num_nodes, dtype=np.int64)
    node_seq = zipf_nodes(nodes, num_requests, alpha=zipf_alpha, rng=rng)

    if closed_loop:
        check_positive_int(concurrency, "concurrency")
        first = min(concurrency, num_requests)
        arrivals: deque = deque((0.0, i) for i in range(first))
        next_issue = first
    else:
        times = poisson_arrivals(num_requests, rate_rps, rng=rng)
        arrivals = deque(zip(times, range(num_requests)))
        next_issue = num_requests

    batcher = MicroBatcher(
        max_batch, max_wait_ms, metrics=getattr(engine, "metrics", None)
    )
    # every engine counter is cumulative across runs; report the deltas
    engine_phases = getattr(engine, "phases", None)
    phases_before = engine_phases.snapshot() if engine_phases is not None else None
    engine_ranks = getattr(engine, "rank_stats", None)
    ranks_before = engine_ranks.snapshot() if engine_ranks is not None else None
    cache_before = replace(engine.cache.stats)
    transport_before = replace(engine.transport)
    latencies = np.zeros(num_requests, dtype=np.float64)
    completed = 0
    shed_count = 0
    max_queue = 0
    service_total = 0.0
    updates_applied = 0
    update_total = 0.0
    now = 0.0

    def admit(t_arr: float, idx: int) -> None:
        """Submit one arrival, shedding the oldest on queue overflow."""
        nonlocal completed, shed_count, max_queue, next_issue
        batcher.submit(Request(idx, int(node_seq[idx]), t_arr))
        if queue_limit is not None and len(batcher) > queue_limit:
            victim = batcher.shed_oldest()
            latencies[victim.id] = np.nan
            shed_count += 1
            completed += 1  # refused immediately — the slot is resolved
            if closed_loop and next_issue < num_requests:
                # the refused client sees its error at shed time and the
                # next closed-loop request is issued right away — at the
                # *front*: ``t_arr`` was just popped from the sorted head,
                # so every remaining entry is >= it, and a tail append
                # behind later completion-issued arrivals would break the
                # deque's time ordering (and with it the shed-oldest and
                # deadline accounting downstream)
                arrivals.appendleft((t_arr, next_issue))
                next_issue += 1
        max_queue = max(max_queue, len(batcher))

    while completed < num_requests:
        # due graph deltas run first: the single server applies them
        # before touching the read queue, and their real wall time
        # advances the virtual clock (reads queue behind the update)
        while pending_updates and pending_updates[0][0] <= now:
            _, delta = pending_updates.popleft()
            start = time.perf_counter()
            engine.apply_delta(delta)
            wall = time.perf_counter() - start
            update_total += wall
            updates_applied += 1
            now += wall
        # admit everything that has arrived by the server-free time
        while arrivals and arrivals[0][0] <= now:
            t_arr, idx = arrivals.popleft()
            admit(t_arr, idx)
        if len(batcher) == 0:
            # idle: jump to the next event, read arrival or graph delta
            now = arrivals[0][0]
            if pending_updates:
                now = min(now, pending_updates[0][0])
            continue
        flush_t = now
        if not batcher.ready(now):
            # idle server, partial batch: it flushes at the oldest
            # request's deadline unless arrivals fill it first
            flush_t = batcher.next_deadline()
            while arrivals and arrivals[0][0] < flush_t and len(batcher) < max_batch:
                t_arr, idx = arrivals.popleft()
                admit(t_arr, idx)
                if len(batcher) >= max_batch:
                    flush_t = t_arr
                else:
                    # an overflow shed may have dropped the request whose
                    # deadline we were waiting on — track the new oldest
                    flush_t = batcher.next_deadline()
        batch = batcher.pop(max(now, flush_t))
        start = time.perf_counter()
        engine.predict([r.node for r in batch])
        service = time.perf_counter() - start
        service_total += service
        done_t = max(now, flush_t) + service
        for r in batch:
            latencies[r.id] = done_t - r.arrival
            completed += 1
            if closed_loop and next_issue < num_requests:
                arrivals.append((done_t, next_issue))
                next_issue += 1
        now = done_t

    duration = max(now, 1e-12)
    served_lat = latencies[~np.isnan(latencies)]
    mean_ms, p50, p95, p99 = _percentile_stats(served_lat)
    if engine_phases is not None:
        deltas = [
            (after - before) * 1e3
            for after, before in zip(engine_phases.snapshot(), phases_before)
        ]
    else:
        deltas = [0.0, 0.0, 0.0, 0.0]
    if engine_ranks is not None:
        balance = RankStats.delta(ranks_before, engine_ranks.snapshot())
    else:
        balance = RankStats()
    cache = _stats_delta(cache_before, engine.cache.stats)
    return ServingReport(
        mode=engine.mode,
        requests=num_requests,
        duration_s=float(duration),
        service_s=float(service_total),
        throughput_rps=float(len(served_lat) / duration),
        mean_ms=mean_ms,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        mean_batch=batcher.stats.mean_batch,
        full_flushes=batcher.stats.full_flushes,
        deadline_flushes=batcher.stats.deadline_flushes,
        drain_flushes=batcher.stats.drain_flushes,
        # this run's share, not the engine's live counters: a later run
        # on the same engine must not rewrite this report
        cache=cache,
        transport=_stats_delta(transport_before, engine.transport),
        shed_count=shed_count,
        max_queue=max_queue,
        sample_ms=deltas[0],
        merge_ms=deltas[1],
        forward_ms=deltas[2],
        cache_ms=deltas[3],
        updates_applied=updates_applied,
        update_ms=float(update_total * 1e3),
        stale_served=cache.stale_hits,
        invalidated=cache.invalidated,
        graph_generation=int(getattr(engine, "graph_generation", 0)),
        rank_busy_ms=[b * 1e3 for b in balance.busy_s],
        imbalance=balance.imbalance,
        latencies_s=latencies,
    )


def _stats_delta(before, after):
    """Field-wise ``after - before`` of two counter dataclasses."""
    return type(after)(
        **{f.name: getattr(after, f.name) - getattr(before, f.name) for f in fields(after)}
    )


def _stats_sum(items: list):
    """Field-wise sum of counter dataclasses of one type."""
    return type(items[0])(
        **{f.name: sum(getattr(s, f.name) for s in items) for f in fields(items[0])}
    )


def _segment_latencies(report: ServingReport) -> np.ndarray:
    """A report's per-request latency array, NaN-filled when unrecorded.

    A report built without per-request latencies (``latencies_s=None``,
    the field default) has its requests booked as NaN, which keeps the
    merged array one entry per request and counts them as SLO misses.
    """
    if report.latencies_s is None:
        return np.full(report.requests, np.nan, dtype=np.float64)
    return np.asarray(report.latencies_s, dtype=np.float64).ravel()


def merge_reports(reports: list[ServingReport]) -> ServingReport:
    """Aggregate sequential segment reports of *one* engine into one.

    The hot-swap path: durations add, and so do the per-segment
    cache/transport counters; ``graph_generation`` comes from the last
    segment; per-rank busy columns are width-padded and summed (same
    rank set, possibly resized between segments).  Percentiles are
    recomputed over the concatenated served latencies,
    shed/queue/phase/freshness counters add, and mixing reports with
    different ``schema_version`` stamps raises.
    """
    if not reports:
        raise ValueError("merge_reports needs at least one report")
    versions = sorted({r.schema_version for r in reports})
    if len(versions) > 1:
        raise ValueError(
            f"cannot merge reports with mixed schema_versions {versions}"
        )
    if len(reports) == 1:
        return reports[0]
    lats = np.concatenate([_segment_latencies(r) for r in reports])
    served_lat = lats[~np.isnan(lats)]
    duration = sum(r.duration_s for r in reports)
    # per-rank balance: width-pad and sum (a resize may widen the rank
    # set between segments), then recompute imbalance over the totals
    width = max((len(r.rank_busy_ms) for r in reports), default=0)
    rank_busy = [0.0] * width
    for r in reports:
        for i, b in enumerate(r.rank_busy_ms):
            rank_busy[i] += float(b)
    mean_ms, p50, p95, p99 = _percentile_stats(served_lat)
    batches = sum(r.full_flushes + r.deadline_flushes + r.drain_flushes for r in reports)
    served = sum(r.served for r in reports)
    return ServingReport(
        mode=reports[-1].mode,
        requests=sum(r.requests for r in reports),
        duration_s=float(duration),
        service_s=float(sum(r.service_s for r in reports)),
        throughput_rps=float(served / max(duration, 1e-12)),
        mean_ms=mean_ms,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        mean_batch=float(served / batches) if batches else 0.0,
        full_flushes=sum(r.full_flushes for r in reports),
        deadline_flushes=sum(r.deadline_flushes for r in reports),
        drain_flushes=sum(r.drain_flushes for r in reports),
        cache=_stats_sum([r.cache for r in reports]),
        transport=_stats_sum([r.transport for r in reports]),
        shed_count=sum(r.shed_count for r in reports),
        max_queue=max(r.max_queue for r in reports),
        sample_ms=float(sum(r.sample_ms for r in reports)),
        merge_ms=float(sum(r.merge_ms for r in reports)),
        forward_ms=float(sum(r.forward_ms for r in reports)),
        cache_ms=float(sum(r.cache_ms for r in reports)),
        updates_applied=sum(r.updates_applied for r in reports),
        update_ms=float(sum(r.update_ms for r in reports)),
        stale_served=sum(r.stale_served for r in reports),
        invalidated=sum(r.invalidated for r in reports),
        graph_generation=reports[-1].graph_generation,
        rank_busy_ms=rank_busy,
        imbalance=RankStats(busy_s=rank_busy).imbalance,
        latencies_s=lats,
        schema_version=versions[0],
    )
