"""Generic shared-memory arenas: the data plane of the persistent runtime.

Three escalating abstractions, all built on ``multiprocessing.shared_memory``:

:class:`ShmArena`
    A named dict of numpy arrays living in shared segments — the generic
    core extracted from the original graph-only store.  The creator owns
    the segments and must :meth:`unlink`; workers :meth:`attach` by spec
    and only :meth:`close` their mappings.  Both lifecycle methods are
    idempotent and safe under double-call and GC-after-unlink.
:class:`ParamStore`
    A fixed-layout parameter/optimizer-state channel.  The layout (array
    shapes, dtypes, offsets) is frozen from template state at creation;
    afterwards :meth:`publish`/:meth:`load` move weights as raw memcpys
    into one segment — no pickling of large arrays ever again.  This is
    what lets the persistent worker pool ship model weights to long-lived
    rank processes for the cost of a copy instead of a fork + pickle.
:class:`BatchArena`
    A slotted scratch region for shipping *variable-shaped* array bundles
    (sampled mini-batches) from worker processes back to a consumer.
    Slot ownership is sequenced externally (a free-slot queue); the arena
    just writes/reads array bundles at slot granularity and reports when
    a bundle does not fit (callers then fall back to queue pickling).
:class:`DeltaLog`
    An append-only log of small :class:`ShmArena` fragments — the
    transport for streaming graph deltas.  The parent appends fragments
    (each one immutable once published); workers attach lazily by
    comparing their local length against the published spec list.  Every
    fragment carries the full arena lifecycle guarantees, so the same
    leak checks that cover the base store cover deltas too.

Lifecycle contract (all classes)
--------------------------------
* The creating process owns the segments and must call :meth:`unlink`
  (or use the object as a context manager).
* Attached instances only drop their local mappings on :meth:`close`.
* ``close``/``unlink`` are idempotent; ``unlink`` after ``close`` still
  retires the names; a second ``unlink`` and GC after either are no-ops.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

__all__ = [
    "SharedArraySpec",
    "ShmArena",
    "ParamStore",
    "BatchArena",
    "DeltaLog",
    "TransportStats",
    "attach_segment",
    "flatten_arrays",
    "unflatten_arrays",
]


@dataclass
class TransportStats:
    """Slot-hit vs pickle-fallback accounting for a :class:`BatchArena`.

    The serving runtime's prediction path reports through it, so
    CLI/bench reports can render "how often did results ride shared
    memory vs fall back to queue pickling".
    """

    #: bundles that travelled through an arena slot (raw memcpy)
    arena_hits: int = 0
    #: bundles that fell back to queue pickling (oversized for a slot)
    pickle_fallbacks: int = 0

    @property
    def total(self) -> int:
        return self.arena_hits + self.pickle_fallbacks

    @property
    def hit_rate(self) -> float:
        """Fraction of bundles served from arena slots (0.0 when idle)."""
        return self.arena_hits / self.total if self.total else 0.0


@dataclass(frozen=True)
class SharedArraySpec:
    """Picklable descriptor of one array living in a shared segment."""

    shm_name: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def _view(shm: shared_memory.SharedMemory, spec: SharedArraySpec) -> np.ndarray:
    """Read-only numpy view over a shared segment (no copy)."""
    arr = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    arr.setflags(write=False)
    return arr


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    Attaching re-registers the name with the resource tracker, which is
    harmless: the tracker daemon is shared across the process tree (its
    fd is inherited under both ``fork`` and ``spawn`` on POSIX) and
    registration is an idempotent set-add, so the creator's single
    ``unlink`` still retires the name exactly once.  Unregistering here
    instead would make the creator's later unlink double-unregister and
    spew ``KeyError`` noise from the tracker daemon.
    """
    return shared_memory.SharedMemory(name=name)


class _SharedSegments:
    """The one definition of the arena lifecycle contract.

    Idempotent ``close``/``unlink``, the owner-only unlink guard, the
    context-manager protocol and the GC safety net — shared by every
    arena class so the invariants (double-call safety, unlink-after-
    close, tolerance of externally reaped names) cannot drift between
    them.  Subclasses provide :meth:`_segment_handles` plus optional
    close/unlink hooks.
    """

    _UNLINK_ERROR = "only the creating process may unlink the segments"

    def _init_lifecycle(self, *, owner: bool) -> None:
        self._owner = owner
        self._closed = False
        self._unlinked = False

    def _segment_handles(self):
        """The ``SharedMemory`` objects this instance holds."""
        raise NotImplementedError

    def _on_close(self) -> None:
        """Hook: drop derived views before the mappings close."""

    def _on_unlink(self) -> None:
        """Hook: forget retired segment handles."""

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def owner(self) -> bool:
        """Whether this instance created (and must unlink) the segments."""
        return self._owner

    def close(self) -> None:
        """Drop the local mappings (both roles); idempotent."""
        if self._closed:
            return
        self._closed = True
        self._on_close()
        for shm in list(self._segment_handles()):
            try:
                shm.close()
            except Exception:  # pragma: no cover - buffer already released
                pass

    def unlink(self) -> None:
        """Free the segments system-wide (owner only); implies :meth:`close`.

        Idempotent: a second call — or a call racing the GC safety net —
        is a no-op, and names already reaped externally are tolerated.
        """
        if not self._owner:
            raise RuntimeError(self._UNLINK_ERROR)
        if self._unlinked:
            return
        self._unlinked = True
        self.close()
        for shm in list(self._segment_handles()):
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reaped
                pass
        self._on_unlink()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            if self._owner:
                self.unlink()
            else:
                self.close()
        except Exception:
            pass


class ShmArena(_SharedSegments):
    """A dict of numpy arrays backed by named shared-memory segments.

    Build with :meth:`create` in the owning process, ship ``spec`` (a
    small picklable dict) to workers and :meth:`attach` there.  Arrays
    are zero-copy read-only views in both roles.
    """

    _UNLINK_ERROR = "only the creating store may unlink segments"

    def __init__(
        self,
        segments: dict[str, shared_memory.SharedMemory],
        specs: dict[str, SharedArraySpec],
        *,
        owner: bool,
    ):
        self._segments = segments
        self._specs = specs
        self._init_lifecycle(owner=owner)
        self._arrays = {k: _view(shm, specs[k]) for k, shm in segments.items()}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "ShmArena":
        """Copy ``arrays`` into fresh shared segments (creator/owner role)."""
        segments: dict[str, shared_memory.SharedMemory] = {}
        specs: dict[str, SharedArraySpec] = {}
        try:
            for key, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
                segments[key] = shm
                specs[key] = SharedArraySpec(shm.name, arr.shape, arr.dtype.str)
                dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                dst[...] = arr
        except Exception:
            for shm in segments.values():
                shm.close()
                shm.unlink()
            raise
        return cls(segments, specs, owner=True)

    @classmethod
    def attach(cls, spec: dict[str, SharedArraySpec]) -> "ShmArena":
        """Map the segments described by a creator's :attr:`spec` (worker role)."""
        segments: dict[str, shared_memory.SharedMemory] = {}
        try:
            for key, aspec in spec.items():
                segments[key] = attach_segment(aspec.shm_name)
        except Exception:
            for shm in segments.values():
                shm.close()
            raise
        return cls(segments, dict(spec), owner=False)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def spec(self) -> dict[str, SharedArraySpec]:
        """Picklable descriptor workers pass to :meth:`attach`."""
        return dict(self._specs)

    def array(self, key: str) -> np.ndarray:
        if self._closed:
            raise ValueError("store is closed")
        return self._arrays[key]

    @property
    def total_bytes(self) -> int:
        return sum(s.nbytes for s in self._specs.values())

    # ------------------------------------------------------------------
    # lifecycle (see _SharedSegments)
    # ------------------------------------------------------------------
    def _segment_handles(self):
        return self._segments.values()

    def _on_close(self) -> None:
        self._arrays.clear()

    def _on_unlink(self) -> None:
        self._segments = {}


class DeltaLog:
    """Append-only log of shared-memory fragments (streaming graph deltas).

    Each fragment is one immutable :class:`ShmArena` holding a small
    bundle of arrays.  The publishing side (the parent's graph store)
    :meth:`append`\\ s fragments as deltas arrive; attached stores in the
    persistent workers :meth:`sync` against the published spec list,
    mapping only the fragments they have not seen — fragments never
    change after publication, so index ``i`` always names the same
    arrays in every process.

    Lifecycle mirrors the base arena: the owner's :meth:`unlink` retires
    every owned fragment system-wide (idempotent per fragment via the
    arena layer); attached logs only :meth:`close` their mappings.  A log
    may mix roles — a store that attached fragments 0..k and later
    re-published is impossible by construction (owners never attach) —
    so :meth:`unlink` simply closes non-owned fragments.
    """

    def __init__(self) -> None:
        self._fragments: list[ShmArena] = []

    def __len__(self) -> int:
        return len(self._fragments)

    def arrays(self, index: int) -> dict[str, np.ndarray]:
        """Zero-copy read-only views of fragment ``index``'s arrays."""
        arena = self._fragments[index]
        return {key: arena.array(key) for key in arena.spec}

    @property
    def specs(self) -> list[dict[str, SharedArraySpec]]:
        """Picklable per-fragment specs, in append order."""
        return [arena.spec for arena in self._fragments]

    @property
    def total_bytes(self) -> int:
        return sum(arena.total_bytes for arena in self._fragments)

    # ------------------------------------------------------------------
    def append(self, arrays: Mapping[str, np.ndarray]) -> dict[str, SharedArraySpec]:
        """Publish one fragment (owner role); returns its spec."""
        arena = ShmArena.create(arrays)
        self._fragments.append(arena)
        return arena.spec

    def sync(self, specs: list[dict[str, SharedArraySpec]], first: int = 0) -> int:
        """Attach fragments published since the last sync (worker role).

        ``specs[i]`` describes fragment ``first + i``: the full published
        list from ``first=0``, or only the newest fragments, so that an
        announcement costs what it adds, not the length of the log.
        Fragments ``0..len(self)`` are assumed already mapped and are
        skipped.  Returns how many new fragments were attached.  A list
        that ends before the mapped fragments (shrank) or starts past them
        (a gap) is a protocol violation.
        """
        have = len(self._fragments)
        if first + len(specs) < have:
            raise ValueError(
                f"delta log shrank: have {have} fragments, "
                f"spec lists {first + len(specs)}"
            )
        if first > have:
            raise ValueError(
                f"delta log gap: have {have} fragments, specs start at {first}"
            )
        for spec in specs[have - first :]:
            self._fragments.append(ShmArena.attach(spec))
        return len(self._fragments) - have

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop local mappings of every fragment; idempotent."""
        for arena in self._fragments:
            arena.close()

    def unlink(self) -> None:
        """Retire owned fragments system-wide, close attached ones."""
        for arena in self._fragments:
            if arena.owner:
                arena.unlink()
            else:
                arena.close()


# ----------------------------------------------------------------------
# nested-structure flattening (ParamStore's serialisation substrate)
# ----------------------------------------------------------------------


class _ArrayRef:
    """Placeholder marking where an extracted array sits in a skeleton."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __eq__(self, other):  # pragma: no cover - debugging aid
        return isinstance(other, _ArrayRef) and other.index == self.index


def flatten_arrays(obj) -> tuple[object, list[np.ndarray]]:
    """Split a nested dict/list/tuple into (skeleton, ordered arrays).

    ndarrays are replaced by :class:`_ArrayRef` placeholders in traversal
    order; everything else (scalars, strings) stays in the skeleton.  The
    skeleton pickles small — it is the shape of the structure, not its
    payload.
    """
    arrays: list[np.ndarray] = []
    return _flatten(obj, arrays), arrays


def unflatten_arrays(skeleton, arrays: list[np.ndarray]):
    """Inverse of :func:`flatten_arrays`."""
    return _unflatten(skeleton, arrays)


# Module-level recursion, not a nested closure: a closure that calls itself
# through its own cell is a reference cycle, which would pin ``arrays``
# (whole state dicts, every epoch) until a full gc pass.
def _flatten(node, arrays: list[np.ndarray]):
    if isinstance(node, np.ndarray):
        arrays.append(node)
        return _ArrayRef(len(arrays) - 1)
    if isinstance(node, dict):
        return type(node)((k, _flatten(v, arrays)) for k, v in node.items())
    if isinstance(node, (list, tuple)):
        return type(node)(_flatten(v, arrays) for v in node)
    return node


def _unflatten(node, arrays: list[np.ndarray]):
    if isinstance(node, _ArrayRef):
        return arrays[node.index]
    if isinstance(node, dict):
        return type(node)((k, _unflatten(v, arrays)) for k, v in node.items())
    if isinstance(node, (list, tuple)):
        return type(node)(_unflatten(v, arrays) for v in node)
    return node


_ALIGN = 16  # array offsets inside a region are 16-byte aligned


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class _SlotLayout:
    """Where one array lives inside a region: (offset, shape, dtype str)."""

    offset: int
    shape: tuple[int, ...]
    dtype: str


class ParamStore(_SharedSegments):
    """Fixed-layout shared-memory channel for model + optimizer state.

    The layout is frozen from a *template* nested structure at
    :meth:`create` time (array count, shapes and dtypes may not change
    afterwards — a topology change means a new store).  Publishing then
    costs one memcpy per array plus a tiny pickled skeleton for the
    non-array remainder (optimizer step counters and the like), and
    loading costs the mirror-image copies out.

    One buffer serves both directions because the persistent-runtime
    protocol is strictly sequenced: the parent publishes before it sends
    an epoch command, workers read after receiving it; rank 0 publishes
    results before reporting, the parent reads after collecting every
    report.
    """

    _HEADER = 16  # int64 blob length + padding
    _UNLINK_ERROR = "only the creating process may unlink the param store"

    def __init__(self, shm, layouts, blob_offset, blob_bytes, *, owner: bool):
        self._shm = shm
        self._layouts: list[_SlotLayout] = layouts
        self._blob_offset = int(blob_offset)
        self._blob_bytes = int(blob_bytes)
        self._init_lifecycle(owner=owner)

    def _segment_handles(self):
        return (self._shm,)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, template, *, blob_bytes: int = 1 << 20) -> "ParamStore":
        """Freeze a layout from ``template`` and allocate the segment."""
        skeleton, arrays = flatten_arrays(template)
        layouts: list[_SlotLayout] = []
        offset = cls._HEADER
        for arr in arrays:
            arr = np.asarray(arr)
            offset = _aligned(offset)
            layouts.append(_SlotLayout(offset, arr.shape, arr.dtype.str))
            offset += arr.nbytes
        blob_offset = _aligned(offset)
        size = blob_offset + int(blob_bytes)
        shm = shared_memory.SharedMemory(create=True, size=max(1, size))
        store = cls(shm, layouts, blob_offset, blob_bytes, owner=True)
        store.publish(template)
        return store

    @property
    def spec(self) -> dict:
        """Picklable descriptor workers pass to :meth:`attach`."""
        return {
            "shm_name": self._shm.name,
            "layouts": list(self._layouts),
            "blob_offset": self._blob_offset,
            "blob_bytes": self._blob_bytes,
        }

    @classmethod
    def attach(cls, spec: dict) -> "ParamStore":
        shm = attach_segment(spec["shm_name"])
        return cls(
            shm, list(spec["layouts"]), spec["blob_offset"], spec["blob_bytes"], owner=False
        )

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._shm.size

    def publish(self, state) -> None:
        """Write a nested state structure into the shared buffer."""
        if self._closed:
            raise ValueError("param store is closed")
        skeleton, arrays = flatten_arrays(state)
        if len(arrays) != len(self._layouts):
            raise ValueError(
                f"state carries {len(arrays)} arrays, layout expects "
                f"{len(self._layouts)} (topology changed? create a new store)"
            )
        buf = self._shm.buf
        for arr, lay in zip(arrays, self._layouts):
            arr = np.ascontiguousarray(arr)
            if arr.shape != lay.shape or arr.dtype.str != lay.dtype:
                raise ValueError(
                    f"array {arr.shape}/{arr.dtype.str} does not match frozen "
                    f"layout {lay.shape}/{lay.dtype}"
                )
            dst = np.ndarray(lay.shape, dtype=np.dtype(lay.dtype), buffer=buf, offset=lay.offset)
            dst[...] = arr
        blob = pickle.dumps(skeleton)
        if len(blob) > self._blob_bytes:
            raise ValueError(
                f"state skeleton pickles to {len(blob)} bytes, blob region "
                f"holds {self._blob_bytes}"
            )
        np.ndarray((1,), dtype=np.int64, buffer=buf)[0] = len(blob)
        buf[self._blob_offset : self._blob_offset + len(blob)] = blob

    def load(self):
        """Read the last published state back out (arrays are copies)."""
        if self._closed:
            raise ValueError("param store is closed")
        buf = self._shm.buf
        arrays = [
            np.ndarray(
                lay.shape, dtype=np.dtype(lay.dtype), buffer=buf, offset=lay.offset
            ).copy()
            for lay in self._layouts
        ]
        (blob_len,) = np.ndarray((1,), dtype=np.int64, buffer=buf)
        blob = bytes(buf[self._blob_offset : self._blob_offset + int(blob_len)])
        return unflatten_arrays(pickle.loads(blob), arrays)


class BatchArena(_SharedSegments):
    """Slotted shared-memory scratch for variable-shaped array bundles.

    ``num_slots`` fixed-size slots in one segment.  A producer that holds
    a slot id writes a bundle with :meth:`write` and ships the returned
    layout (small and picklable) instead of the arrays; the consumer
    :meth:`read`\\ s the bundle out and recycles the slot id.  Slot
    ownership/sequencing is the caller's job — the serving pool gives
    each rank its own slot.

    :meth:`write` returns ``None`` when the bundle does not fit a slot,
    so callers can fall back to ordinary queue pickling for outliers
    instead of failing the pipeline.
    """

    _UNLINK_ERROR = "only the creating process may unlink the batch arena"

    def __init__(self, shm, num_slots: int, slot_bytes: int, *, owner: bool):
        self._shm = shm
        self.num_slots = int(num_slots)
        self.slot_bytes = int(slot_bytes)
        self._init_lifecycle(owner=owner)

    def _segment_handles(self):
        return (self._shm,)

    @classmethod
    def create(cls, *, num_slots: int, slot_bytes: int) -> "BatchArena":
        if num_slots < 1 or slot_bytes < _ALIGN:
            raise ValueError(
                f"need >=1 slot of >={_ALIGN} bytes, got {num_slots} x {slot_bytes}"
            )
        shm = shared_memory.SharedMemory(create=True, size=num_slots * slot_bytes)
        return cls(shm, num_slots, slot_bytes, owner=True)

    @property
    def spec(self) -> dict:
        return {
            "shm_name": self._shm.name,
            "num_slots": self.num_slots,
            "slot_bytes": self.slot_bytes,
        }

    @classmethod
    def attach(cls, spec: dict) -> "BatchArena":
        shm = attach_segment(spec["shm_name"])
        return cls(shm, spec["num_slots"], spec["slot_bytes"], owner=False)

    # ------------------------------------------------------------------
    def write(self, slot: int, arrays) -> list[_SlotLayout] | None:
        """Pack ``arrays`` into ``slot``; ``None`` if they do not fit."""
        if self._closed:
            raise ValueError("batch arena is closed")
        if not 0 <= slot < self.num_slots:
            raise ValueError(f"slot {slot} out of range for {self.num_slots} slots")
        base = slot * self.slot_bytes
        offset = 0
        layouts: list[_SlotLayout] = []
        arrays = [np.ascontiguousarray(a) for a in arrays]
        for arr in arrays:
            offset = _aligned(offset)
            if offset + arr.nbytes > self.slot_bytes:
                return None
            layouts.append(_SlotLayout(offset, arr.shape, arr.dtype.str))
            offset += arr.nbytes
        buf = self._shm.buf
        for arr, lay in zip(arrays, layouts):
            dst = np.ndarray(
                lay.shape, dtype=np.dtype(lay.dtype), buffer=buf, offset=base + lay.offset
            )
            dst[...] = arr
        return layouts

    def read(self, slot: int, layouts) -> list[np.ndarray]:
        """Copy a bundle written by :meth:`write` back out."""
        if self._closed:
            raise ValueError("batch arena is closed")
        base = slot * self.slot_bytes
        buf = self._shm.buf
        return [
            np.ndarray(
                lay.shape, dtype=np.dtype(lay.dtype), buffer=buf, offset=base + lay.offset
            ).copy()
            for lay in layouts
        ]
