"""Collective communication between process-backend ranks.

The interface is the subset of ``torch.distributed`` ARGO needs:
``allreduce_mean`` (gradient synchronisation — the synchronous SGD of
paper Sec. IV-A step 2) and ``barrier``.  No weight broadcast exists:
every rank loads the same parent-published state from the shared
:class:`~repro.shm.arena.ParamStore` at the top of each epoch.

:class:`ProcessWorld` holds OS-process ranks over one shared-memory
segment (the paper's actual deployment shape): every rank writes its
contribution into its own float64 slot, and a reusable cross-process
barrier separates the write and read phases.  Every rank then sums the
slots in rank order — the order
:func:`repro.distributed.ddp.average_gradients` uses — so the result is
bit-identical to the in-process reference whatever order the ranks
arrive in.
"""

from __future__ import annotations

import threading
import time
from multiprocessing import shared_memory
from typing import Sequence

import multiprocessing as mp

import numpy as np

__all__ = [
    "ResizableBarrier",
    "ProcessWorld",
    "ProcessCommunicator",
]


# ----------------------------------------------------------------------
# process backend: collectives over one shared-memory segment
# ----------------------------------------------------------------------

class ResizableBarrier:
    """Cross-process reusable barrier whose party count can change.

    ``multiprocessing.Barrier`` fixes its party count at construction,
    which forced the persistent worker pool to pre-create one world per
    candidate size before forking (locks/barriers only travel by
    inheritance).  This barrier keeps its state — ``[parties, count,
    generation, broken]`` — in a shared ``RawArray`` guarded by one
    condition variable, so the *parent* can :meth:`resize` the party
    count between generations and every forked worker sees the change
    through the shared state: one barrier, one world, any active size.

    Semantics mirror ``threading.Barrier`` where they overlap:
    :meth:`wait` returns the rank's arrival index, a timeout or
    :meth:`abort` breaks the barrier permanently
    (``threading.BrokenBarrierError`` for every current and future
    waiter), and generations cycle so the barrier is reusable.
    :meth:`resize` is only legal while no rank is waiting — the pool
    guarantees that by resizing strictly between synchronous
    collectives (the Rebind command rides the FIFO ahead of the next
    plan).
    """

    def __init__(self, parties: int, *, ctx=None):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        ctx = ctx if ctx is not None else mp.get_context()
        self._cond = ctx.Condition(ctx.Lock())
        self._state = ctx.RawArray("q", 4)  # [parties, count, generation, broken]
        self._state[0] = int(parties)

    @property
    def parties(self) -> int:
        return int(self._state[0])

    @property
    def broken(self) -> bool:
        return bool(self._state[3])

    def wait(self, timeout: float | None = None) -> int:
        """Rendezvous with the other ``parties - 1`` ranks.

        Returns this rank's arrival index (0..parties-1, in arrival
        order — index 0 is *some* rank, exactly one per generation).
        A rank that times out breaks the barrier for everyone.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            if self._state[3]:
                raise threading.BrokenBarrierError
            idx = int(self._state[1])
            self._state[1] = idx + 1
            if idx + 1 == self._state[0]:
                # last arriver opens the next generation
                self._state[1] = 0
                self._state[2] += 1
                self._cond.notify_all()
                return idx
            gen = int(self._state[2])
            while self._state[2] == gen:
                if self._state[3]:
                    raise threading.BrokenBarrierError
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    self._state[3] = 1
                    self._cond.notify_all()
                    raise threading.BrokenBarrierError
                self._cond.wait(remaining)
            if self._state[3]:
                raise threading.BrokenBarrierError
            return idx

    def abort(self) -> None:
        """Break the barrier permanently; wakes every waiter.

        The flag write does not require the lock (racing waiters check
        it on wake, and their own timeouts bound the wait), so a peer
        that died *holding* the condition's lock cannot deadlock the
        aborter — we only take the lock, with a bound, to notify.
        """
        got = self._cond.acquire(timeout=1.0)
        try:
            self._state[3] = 1
            if got:
                self._cond.notify_all()
        finally:
            if got:
                self._cond.release()

    def resize(self, parties: int) -> None:
        """Change the party count; only legal with no rank waiting."""
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        with self._cond:
            if self._state[3]:
                raise RuntimeError("cannot resize a broken barrier")
            if self._state[1] != 0:
                raise RuntimeError("cannot resize while ranks are waiting")
            self._state[0] = int(parties)


class ProcessWorld:
    """Shared rendezvous state for a group of OS-process ranks.

    Parameters
    ----------
    world_size:
        Number of participating processes (the parent is *not* a rank).
    capacity:
        Maximum total elements one ``allreduce_mean`` may carry (for
        gradient sync: the model's parameter count) — the length of each
        rank's float64 slot.
    ctx:
        ``multiprocessing`` context supplying the barrier (defaults
        to the platform default; ``fork`` and ``spawn`` both work — the
        world re-attaches its segment by name when pickled to a spawned
        worker).
    timeout:
        Seconds any rank waits at a collective before declaring the world
        broken (a crashed peer breaks the barrier for everyone).

    The collective protocol is SPMD: every rank must issue the same
    sequence of collectives.  The segment holds one float64 slot of
    ``capacity`` elements per rank.  ``allreduce_mean`` is two-phase —
    each rank writes its own slot, barrier, each rank sums slots
    ``0..world_size-1`` in rank order, barrier — so no lock is needed
    and the second barrier keeps a fast rank's next write from tearing a
    slow rank's read.

    A world is built to be **reused across epochs**: the persistent
    worker pool creates one world per launch and drives every epoch's
    collectives through it (the barrier cycles naturally; every
    collective overwrites the slots it reads).  An :meth:`abort`
    poisons the barrier permanently by design: after a failure the
    owning pool tears the world down rather than trusting half-finished
    collective state (check :attr:`broken`).

    The barrier is a :class:`ResizableBarrier`, so **one** world serves
    every active size the pool rebinds to: the parent calls
    :meth:`resize` (shared party count + its own ``world_size``)
    strictly between collectives, and each worker applies the matching
    :meth:`rebind` (local ``world_size`` only — the shared barrier
    state already changed) when its Rebind command arrives.  Growth is
    bounded by the creation size (:attr:`max_world_size`): the
    per-rank slots are laid out once, at creation.
    """

    def __init__(
        self,
        world_size: int,
        capacity: int,
        *,
        ctx=None,
        timeout: float = 120.0,
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        ctx = ctx if ctx is not None else mp.get_context()
        self.world_size = int(world_size)
        #: the creation size — the resize ceiling and slot layout
        self.max_world_size = int(world_size)
        self.capacity = int(capacity)
        self.timeout = float(timeout)
        size = self.max_world_size * 8 * self.capacity
        self._shm = shared_memory.SharedMemory(create=True, size=size)
        self._owner = True
        self._closed = False
        self._barrier = ResizableBarrier(self.world_size, ctx=ctx)

    # -- shared views (recomputed per process; views don't survive pickling)
    def _slots(self) -> np.ndarray:
        """The ``(max_world_size, capacity)`` float64 collective slots."""
        return np.ndarray(
            (self.max_world_size, self.capacity), dtype=np.float64, buffer=self._shm.buf
        )

    # -- spawn support: re-attach the segment by name in the child
    def __getstate__(self):
        return {
            "world_size": self.world_size,
            "max_world_size": self.max_world_size,
            "capacity": self.capacity,
            "timeout": self.timeout,
            "shm_name": self._shm.name,
            "barrier": self._barrier,
        }

    def __setstate__(self, state):
        self.world_size = state["world_size"]
        self.max_world_size = state["max_world_size"]
        self.capacity = state["capacity"]
        self.timeout = state["timeout"]
        self._barrier = state["barrier"]
        # same no-unregister attach semantics as the graph store
        from repro.shm.arena import attach_segment

        self._shm = attach_segment(state["shm_name"])
        self._owner = False
        self._closed = False

    # ------------------------------------------------------------------
    def _wait(self) -> int:
        """Barrier wait with timeout; returns the rank's arrival index."""
        try:
            return self._barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            raise RuntimeError(
                "process collective broken (peer crashed or timed out)"
            ) from None

    def abort(self) -> None:
        """Break the barrier so peers blocked in collectives fail fast."""
        self._barrier.abort()

    @property
    def broken(self) -> bool:
        """Whether the world's barrier has been aborted (world unusable)."""
        try:
            return bool(self._barrier.broken)
        except Exception:  # pragma: no cover - manager/ctx quirks
            return True

    def resize(self, world_size: int) -> None:
        """Parent-side size change: shared barrier parties + local size.

        Only legal strictly between collectives (no rank waiting) and
        within the creation size — slots for ranks beyond
        :attr:`max_world_size` were never laid out.  Workers pick the
        change up via :meth:`rebind` when their Rebind command arrives;
        until then they are parked in the idle loop, not in a
        collective, so the ordering is safe.
        """
        if not 1 <= world_size <= self.max_world_size:
            raise ValueError(
                f"world_size must be in [1, {self.max_world_size}], got {world_size}"
            )
        self._barrier.resize(world_size)
        self.world_size = int(world_size)

    def rebind(self, world_size: int) -> None:
        """Worker-side size change: local bookkeeping only.

        The shared barrier was already resized by the parent's
        :meth:`resize`; the worker just updates the ``world_size`` its
        communicators divide by and range-check against.  Rebinding onto
        a broken world raises immediately — after an abort the barrier
        can never complete a cycle again, so adopting a new size would
        only defer the failure to the next collective with a less
        attributable error.
        """
        if not 1 <= world_size <= self.max_world_size:
            raise ValueError(
                f"world_size must be in [1, {self.max_world_size}], got {world_size}"
            )
        if self.broken:
            raise RuntimeError(
                "cannot rebind a broken world (a peer aborted or timed out); "
                "relaunch the pool instead"
            )
        self.world_size = int(world_size)

    def communicator(self, rank: int) -> "ProcessCommunicator":
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range for world size {self.world_size}")
        return ProcessCommunicator(self, rank)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()

    def unlink(self) -> None:
        """Free the segment system-wide (creator only); implies close."""
        if not self._owner:
            raise RuntimeError("only the creating process may unlink the world")
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass

    def __enter__(self) -> "ProcessWorld":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            if self._owner and not self._closed:
                self.unlink()
        except Exception:
            pass


class ProcessCommunicator:
    """Per-rank handle onto a :class:`ProcessWorld` (used inside workers)."""

    def __init__(self, world: ProcessWorld, rank: int):
        self.world = world
        self.rank = rank
        self.world_size = world.world_size

    def allreduce_mean(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Element-wise mean of each array across the ranks, returned as
        new arrays shaped and typed like ``arrays``."""
        arrays = [np.asarray(a) for a in arrays]
        total = sum(a.size for a in arrays)
        w = self.world
        if total > w.capacity:
            raise ValueError(
                f"collective payload ({total} elements) exceeds world capacity "
                f"({w.capacity})"
            )
        slots = w._slots()
        off = 0
        for a in arrays:
            slots[self.rank, off : off + a.size] = a.ravel()
            off += a.size
        w._wait()  # every rank's slot written
        acc = np.zeros(total)
        for r in range(w.world_size):  # rank order, as average_gradients sums
            acc += slots[r, :total]
        acc /= w.world_size
        out = []
        off = 0
        for a in arrays:
            out.append(acc[off : off + a.size].reshape(a.shape).astype(a.dtype))
            off += a.size
        w._wait()  # all reads done before any slot is rewritten
        return out

    def barrier(self) -> None:
        self.world._wait()
