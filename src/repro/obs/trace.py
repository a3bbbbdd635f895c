"""Span recording: the one timer of the serving path.

A :class:`SpanRecorder` times a region once — a ``time.perf_counter()``
pair and one ``record`` call — and folds the duration into the span's
``serve.phase.<span>_s`` :class:`~repro.obs.metrics.Histogram`: in the
engine's registry, or privately in a pool worker, which ships them with
its plan result (:meth:`SpanRecorder.take` / :meth:`SpanRecorder.merge`).

With tracing on, the recorder also writes each span into its rank's
ring of a :class:`TraceArena` (``recorder.enabled`` means "has a
ring"): one fixed-slot ring of ``(name_id, t0, t1, arg)`` records plus
a monotone cursor per rank, in shared memory.  Pool workers attach by
spec once and write spans with four array stores and an integer
increment — no pickling, no queues, no allocation.  Rings overwrite
oldest-first; the cursor doubles as the dropped-span counter.

Span names are interned: the canonical serving-stack names below get
fixed ids so every process agrees without exchanging a table; dynamic
names can be interned parent-side through :class:`NameTable`.

Timestamps are ``time.perf_counter()`` values.  On Linux that clock is
``CLOCK_MONOTONIC``, which is system-wide — parent and forked workers
share a timebase, so one merged timeline is meaningful.  Code without a
serving engine (the training pool) holds :data:`NULL_RECORDER`, which
keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import Histogram
from repro.shm.arena import ShmArena

__all__ = [
    "CANONICAL_SPANS",
    "NameTable",
    "NullRecorder",
    "NULL_RECORDER",
    "SpanRecord",
    "SpanRecorder",
    "TraceArena",
    "SPAN_SAMPLE",
    "SPAN_MERGE",
    "SPAN_FORWARD",
    "SPAN_CACHE",
    "SPAN_PREDICT",
    "SPAN_PLAN",
    "SPAN_BARRIER",
    "SPAN_LAUNCH",
    "SPAN_REBIND",
    "SPAN_PUBLISH",
    "SPAN_RELOAD",
    "SPAN_DELTA_SYNC",
    "SPAN_FLUSH",
    "SPAN_WAIT",
    "span_metric",
]

#: Fixed-id span names every process knows without IPC.  Order is part
#: of the trace format — append only.
CANONICAL_SPANS = (
    "sample",  # per-request frontier sampling
    "merge",  # block-diagonal frontier merge
    "forward",  # model forward (one BLAS-stable call chain)
    "cache",  # prediction-cache lookup/insert
    "predict",  # whole engine.predict call
    "plan",  # one InferPlan executed by a pool rank
    "barrier",  # parent drain wait for all ranks' results
    "launch",  # pool (re)launch: fork + first publish
    "rebind",  # pool resize without re-fork
    "publish",  # ParamStore weight publish
    "reload",  # worker-side hot weight reload
    "delta_sync",  # worker-side graph delta application
    "flush",  # micro-batcher flush decision
    "wait",  # pipeline delivery wait
)

_CANONICAL_IDS = {name: i for i, name in enumerate(CANONICAL_SPANS)}

SPAN_SAMPLE = _CANONICAL_IDS["sample"]
SPAN_MERGE = _CANONICAL_IDS["merge"]
SPAN_FORWARD = _CANONICAL_IDS["forward"]
SPAN_CACHE = _CANONICAL_IDS["cache"]
SPAN_PREDICT = _CANONICAL_IDS["predict"]
SPAN_PLAN = _CANONICAL_IDS["plan"]
SPAN_BARRIER = _CANONICAL_IDS["barrier"]
SPAN_LAUNCH = _CANONICAL_IDS["launch"]
SPAN_REBIND = _CANONICAL_IDS["rebind"]
SPAN_PUBLISH = _CANONICAL_IDS["publish"]
SPAN_RELOAD = _CANONICAL_IDS["reload"]
SPAN_DELTA_SYNC = _CANONICAL_IDS["delta_sync"]
SPAN_FLUSH = _CANONICAL_IDS["flush"]
SPAN_WAIT = _CANONICAL_IDS["wait"]


def span_metric(name: str) -> str:
    """The registry histogram a span's durations fold into."""
    return f"serve.phase.{name}_s"


class NameTable:
    """Interned span names.  Ids 0..len(CANONICAL_SPANS)-1 are fixed.

    Workers only ever emit canonical ids, so a parent-side table (which
    may intern extra names) resolves every id in a merged trace.
    """

    def __init__(self) -> None:
        self._names: list[str] = list(CANONICAL_SPANS)
        self._ids: dict[str, int] = dict(_CANONICAL_IDS)

    def intern(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = len(self._names)
            self._names.append(name)
            self._ids[name] = name_id
        return name_id

    def name(self, name_id: int) -> str:
        if 0 <= name_id < len(self._names):
            return self._names[name_id]
        return f"span#{name_id}"

    def __len__(self) -> int:
        return len(self._names)


@dataclass(frozen=True)
class SpanRecord:
    """One drained span: which ring, what, when, and a free int arg."""

    rank: int
    name_id: int
    t0: float
    t1: float
    arg: int


class SpanRecorder:
    """Times regions: a histogram per span name, plus an optional ring.

    ``record`` folds ``t1 - t0`` into the span's histogram (in
    ``registry`` when one is given, private otherwise) and, when the
    recorder has a ring, writes the record there too.  Overwrite-on-wrap
    is intentional — a stalled exporter can never block or OOM the
    serving path.
    """

    __slots__ = ("_registry", "_hists", "_ring")

    def __init__(self, registry=None, ring=None):
        self._registry = registry
        self._hists: dict[int, Histogram] = {}
        #: (name_id, t0, t1, arg, cursor) arrays of one rank, or None
        self._ring = ring

    @property
    def enabled(self) -> bool:
        return self._ring is not None

    def _histogram(self, name_id: int) -> Histogram:
        hist = self._hists.get(name_id)
        if hist is None:
            hist = self._hists[name_id] = (
                Histogram() if self._registry is None
                else self._registry.histogram(span_metric(CANONICAL_SPANS[name_id]))
            )
        return hist

    def record(self, name_id: int, t0: float, t1: float, arg: int = 0) -> None:
        self._histogram(name_id).observe(t1 - t0)
        if self._ring is not None:
            names, t0s, t1s, args, cursor = self._ring
            at = int(cursor[0])
            slot = at % len(names)
            names[slot] = name_id
            t0s[slot] = t0
            t1s[slot] = t1
            args[slot] = arg
            cursor[0] = at + 1

    def take(self) -> dict[int, Histogram]:
        """The histograms folded so far, by span id; starts afresh."""
        taken, self._hists = self._hists, {}
        return taken

    def merge(self, hists: dict[int, Histogram]) -> None:
        """Fold another recorder's :meth:`take` in, buckets included."""
        for name_id, other in hists.items():
            self._histogram(name_id).merge(other)


class NullRecorder:
    """The recorder of code with no serving engine: keeps nothing."""

    __slots__ = ()

    enabled = False

    def record(self, name_id: int, t0: float, t1: float, arg: int = 0) -> None:
        pass


#: Shared no-op instance for callers without a serving engine.
NULL_RECORDER = NullRecorder()


class TraceArena(ShmArena):
    """Per-rank shared-memory span rings.

    Created parent-side with :meth:`for_ranks`; workers
    :meth:`~repro.shm.arena.ShmArena.attach` by spec and build their
    :class:`SpanRecorder` with :meth:`recorder`.  The base arena's
    lifecycle contract applies unchanged (owner unlinks, workers close,
    both idempotent) — which is exactly what the /dev/shm leak tests
    assert.
    """

    _UNLINK_ERROR = "only the creating process may unlink the trace arena"

    @classmethod
    def for_ranks(cls, num_ranks: int, *, capacity: int = 1 << 14) -> "TraceArena":
        if num_ranks < 1 or capacity < 1:
            raise ValueError(
                f"need >=1 ring of >=1 slots, got {num_ranks} x {capacity}"
            )
        return cls.create(
            {
                "name_id": np.zeros((num_ranks, capacity), dtype=np.int64),
                "t0": np.zeros((num_ranks, capacity), dtype=np.float64),
                "t1": np.zeros((num_ranks, capacity), dtype=np.float64),
                "arg": np.zeros((num_ranks, capacity), dtype=np.int64),
                "cursor": np.zeros((num_ranks,), dtype=np.int64),
            }
        )

    # ------------------------------------------------------------------
    @property
    def num_ranks(self) -> int:
        return self._specs["cursor"].shape[0]

    @property
    def capacity(self) -> int:
        return self._specs["name_id"].shape[1]

    def _writable(self, key: str) -> np.ndarray:
        # the base class's views are deliberately read-only; recorders
        # need stores, so map the segment again without the flag
        spec = self._specs[key]
        return np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype), buffer=self._segments[key].buf
        )

    def recorder(self, rank: int, registry=None) -> SpanRecorder:
        """A recorder writing ring ``rank`` and folding into ``registry``
        (call in the owning process of that ring only — rings are
        single-writer by construction)."""
        if self._closed:
            raise ValueError("trace arena is closed")
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range for {self.num_ranks} rings")
        ring = tuple(
            self._writable(key)[rank] for key in ("name_id", "t0", "t1", "arg")
        ) + (self._writable("cursor")[rank : rank + 1],)
        return SpanRecorder(registry, ring)

    # ------------------------------------------------------------------
    def dropped(self) -> list[int]:
        """Spans lost to ring overwrite, per rank."""
        cursors = self.array("cursor")
        return [max(0, int(c) - self.capacity) for c in cursors]

    def drain(self) -> list[SpanRecord]:
        """Snapshot every ring's surviving records, sorted by start time.

        Reads are copies; recording may continue concurrently (a racing
        writer can at worst tear the newest slot, never the drained
        history semantics — rings are append-ordered by cursor).
        """
        names = self.array("name_id")
        t0s = self.array("t0")
        t1s = self.array("t1")
        args = self.array("arg")
        cursors = self.array("cursor")
        cap = self.capacity
        records: list[SpanRecord] = []
        for rank in range(self.num_ranks):
            cursor = int(cursors[rank])
            count = min(cursor, cap)
            for i in range(count):
                # ring order: oldest surviving record first
                slot = (cursor - count + i) % cap
                t0 = float(t0s[rank, slot])
                t1 = float(t1s[rank, slot])
                if t1 < t0:  # pragma: no cover - torn concurrent write
                    continue
                records.append(
                    SpanRecord(rank, int(names[rank, slot]), t0, t1, int(args[rank, slot]))
                )
        records.sort(key=lambda r: (r.t0, r.rank))
        return records
