"""Shared-memory span tracing: per-rank ring buffers, zero IPC.

A :class:`TraceArena` is an :class:`~repro.shm.arena.ShmArena` holding
one fixed-slot ring per rank: ``(name_id, t0, t1, arg)`` records plus a
monotone per-rank cursor.  Persistent pool workers attach by spec once
and then record spans with four array stores and an integer increment —
no pickling, no queues, no allocation on the hot path.  Rings overwrite
oldest-first when full; the cursor doubles as the dropped-span counter
(``cursor - capacity`` when it has wrapped).

Span names are interned: the canonical serving-stack names below get
fixed ids so every process agrees without exchanging a table; dynamic
names can be interned parent-side through :class:`NameTable`.

Timestamps are ``time.perf_counter()`` values.  On Linux that clock is
``CLOCK_MONOTONIC``, which is system-wide — parent and forked workers
share a timebase, so one merged timeline is meaningful.

Tracing is off by default: callers hold :data:`NULL_RECORDER` (whose
``enabled`` is False) and hot paths guard with ``if recorder.enabled``
so the disabled path costs one attribute read and a branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Writes fixed-slot span records into one rank's ring.

    Plain method, no closures: the hot path does four array element
    stores and bumps the cursor.  Overwrite-on-wrap is intentional —
    a stalled exporter can never block or OOM the serving path.
    """

    __slots__ = ("rank", "_name", "_t0", "_t1", "_arg", "_cursor", "_capacity")

    enabled = True

    def __init__(self, rank, name, t0, t1, arg, cursor):
        self.rank = int(rank)
        self._name = name
        self._t0 = t0
        self._t1 = t1
        self._arg = arg
        self._cursor = cursor
        self._capacity = int(name.shape[0])

    def record(self, name_id: int, t0: float, t1: float, arg: int = 0) -> None:
        cursor = int(self._cursor[0])
        slot = cursor % self._capacity
        self._name[slot] = name_id
        self._t0[slot] = t0
        self._t1[slot] = t1
        self._arg[slot] = arg
        self._cursor[0] = cursor + 1


class NullRecorder:
    """The disabled recorder: ``enabled`` is False, ``record`` a no-op."""

    __slots__ = ()

    enabled = False
    rank = -1

    def record(self, name_id: int, t0: float, t1: float, arg: int = 0) -> None:
        pass


#: Shared no-op instance — hold this instead of ``None`` so hot paths
#: never need a None check before ``recorder.enabled``.
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

    def recorder(self, rank: int) -> SpanRecorder:
        """A writer over ring ``rank`` (call in the owning process of
        that ring only — rings are single-writer by construction)."""
        if self._closed:
            raise ValueError("trace arena is closed")
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range for {self.num_ranks} rings")
        return SpanRecorder(
            rank,
            self._writable("name_id")[rank],
            self._writable("t0")[rank],
            self._writable("t1")[rank],
            self._writable("arg")[rank],
            self._writable("cursor")[rank : rank + 1],
        )

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
