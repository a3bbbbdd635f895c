"""Collective substrate: the resizable barrier and the process world's
resize bookkeeping.

Cross-process collective behaviour lives in ``tests/exec/test_process_comm.py``.
"""

import threading
import time

import pytest

from repro.distributed.comm import ProcessWorld, ResizableBarrier


class TestResizableBarrier:
    """The shared-state barrier behind the single resizable ProcessWorld.

    Thread-level tests: the barrier's state lives in a shared RawArray,
    so the cross-process behaviour is the same code path — these cover
    the generation/resize/broken protocol without fork overhead.
    """

    def _rendezvous(self, barrier, parties, timeout=5.0):
        results = [None] * parties

        def worker(i):
            results[i] = barrier.wait(timeout=timeout)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(parties)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return results

    def test_arrival_indices(self):
        barrier = ResizableBarrier(3)
        out = self._rendezvous(barrier, 3)
        assert sorted(out) == [0, 1, 2]

    def test_reusable_across_generations(self):
        barrier = ResizableBarrier(2)
        for _ in range(3):
            out = self._rendezvous(barrier, 2)
            assert sorted(out) == [0, 1]

    def test_single_party_returns_immediately(self):
        barrier = ResizableBarrier(1)
        assert barrier.wait(timeout=0.1) == 0
        assert barrier.wait(timeout=0.1) == 0

    def test_resize_changes_parties(self):
        barrier = ResizableBarrier(3)
        assert barrier.parties == 3
        barrier.resize(2)
        assert barrier.parties == 2
        assert sorted(self._rendezvous(barrier, 2)) == [0, 1]
        barrier.resize(1)
        assert barrier.wait(timeout=0.1) == 0

    def test_timeout_breaks_permanently(self):
        barrier = ResizableBarrier(2)
        with pytest.raises(threading.BrokenBarrierError):
            barrier.wait(timeout=0.05)
        assert barrier.broken
        # broken is permanent: future waiters fail fast, resize refuses
        with pytest.raises(threading.BrokenBarrierError):
            barrier.wait(timeout=0.05)
        with pytest.raises(RuntimeError):
            barrier.resize(3)

    def test_abort_wakes_waiter(self):
        barrier = ResizableBarrier(2)
        caught = []

        def waiter():
            try:
                barrier.wait(timeout=5.0)
            except threading.BrokenBarrierError:
                caught.append(True)

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        barrier.abort()
        t.join(timeout=5.0)
        assert caught == [True]
        assert barrier.broken

    def test_rejects_bad_parties(self):
        with pytest.raises(ValueError):
            ResizableBarrier(0)
        with pytest.raises(ValueError):
            ResizableBarrier(2).resize(0)


class TestProcessWorldResize:
    """Parent resize / worker rebind bookkeeping on one shared world."""

    def test_resize_within_creation_ceiling(self):
        world = ProcessWorld(3, capacity=8)
        try:
            assert world.max_world_size == 3
            world.resize(1)
            assert world.world_size == 1
            assert world._barrier.parties == 1
            world.resize(2)
            assert world.world_size == 2
            with pytest.raises(ValueError):
                world.resize(4)  # beyond the creation layout
            with pytest.raises(ValueError):
                world.resize(0)
        finally:
            world.close()
            world.unlink()

    def test_rebind_is_local_only(self):
        world = ProcessWorld(2, capacity=8)
        try:
            world.resize(1)
            world.rebind(1)
            assert world.world_size == 1
            with pytest.raises(ValueError):
                world.rebind(3)
            with pytest.raises(ValueError):
                world.communicator(1)  # rank beyond the rebound size
        finally:
            world.close()
            world.unlink()


class TestResizeAbortRaces:
    """Resize racing timeouts/aborts: the pool's live-resize hazard.

    ``resize`` is documented legal only between collectives, but the
    parent cannot *observe* a worker entering ``wait`` atomically — so
    the barrier must turn every racy interleaving into a clean refusal
    (RuntimeError) or a clean break (BrokenBarrierError), never a hang
    and never a silent wrong-parties rendezvous.
    """

    def test_resize_refused_while_rank_waiting(self):
        barrier = ResizableBarrier(2)
        entered = threading.Event()
        out = []

        def waiter():
            entered.set()
            out.append(barrier.wait(timeout=5.0))

        t = threading.Thread(target=waiter)
        t.start()
        entered.wait(timeout=5.0)
        time.sleep(0.05)  # let the waiter register (count == 1)
        with pytest.raises(RuntimeError, match="waiting"):
            barrier.resize(3)
        # the refusal left the barrier fully usable: complete the cycle
        assert barrier.wait(timeout=5.0) in (0, 1)
        t.join(timeout=5.0)
        assert not t.is_alive() and len(out) == 1

    def test_resize_concurrent_with_worker_timeout(self):
        """Parent hammers resize() while a worker times out mid-wait.

        Every resize call must either succeed (strictly before the
        waiter registered) or raise RuntimeError (waiter registered, or
        barrier already broken) — and the timing-out waiter must always
        get its BrokenBarrierError, never a hang.
        """
        barrier = ResizableBarrier(2)
        broke = []

        def waiter():
            try:
                barrier.wait(timeout=0.2)
            except threading.BrokenBarrierError:
                broke.append(True)

        t = threading.Thread(target=waiter)
        t.start()
        deadline = time.monotonic() + 2.0
        refusals = 0
        while t.is_alive() and time.monotonic() < deadline:
            try:
                barrier.resize(2)
            except RuntimeError:
                refusals += 1
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert broke == [True]
        assert barrier.broken
        # post-break resizes keep refusing with the broken-barrier error
        with pytest.raises(RuntimeError, match="broken"):
            barrier.resize(1)

    def test_abort_racing_resize_never_hangs(self):
        """abort() from one thread while another resizes: both return,
        and the loser of the race sees a consistent broken barrier."""
        for _ in range(20):
            barrier = ResizableBarrier(3)
            t = threading.Thread(target=barrier.abort)
            t.start()
            try:
                barrier.resize(2)
            except RuntimeError:
                pass  # abort won the race
            t.join(timeout=5.0)
            assert not t.is_alive()
            assert barrier.broken
            with pytest.raises(threading.BrokenBarrierError):
                barrier.wait(timeout=0.1)


class TestRebindAfterBreak:
    def test_rebind_broken_world_raises_cleanly(self):
        """A worker whose Rebind command lands after a peer abort must
        fail attributably instead of adopting the new size and dying in
        the next collective."""
        world = ProcessWorld(2, capacity=8)
        try:
            world.abort()
            assert world.broken
            with pytest.raises(RuntimeError, match="broken world"):
                world.rebind(1)
            # bookkeeping untouched by the refused rebind
            assert world.world_size == 2
        finally:
            world.close()
            world.unlink()

    def test_rebind_range_check_precedes_broken_check(self):
        world = ProcessWorld(2, capacity=8)
        try:
            world.abort()
            with pytest.raises(ValueError):
                world.rebind(5)  # out of range stays ValueError, broken or not
        finally:
            world.close()
            world.unlink()
