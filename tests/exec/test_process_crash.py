"""Process backend under worker failure: no leaks, no zombies.

Crash-injection tests for the shutdown contract, in both execution modes
(persistent worker pool and per-epoch respawn): when a rank process
raises — or is killed outright — mid-epoch, the backend must (1) surface
a clear root error, (2) reap every child, pool included, and (3) unlink
*all* shared-memory segments (graph store, collective world, param
store) so no exception path leaks kernel resources.

``TestRetryAfterFailure`` also holds the inline backend to the
failed-epoch rule both backends share.
"""

import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.core.engine import MultiProcessEngine
from repro.gnn.models import make_task
from repro.sampling.neighbor import NeighborSampler

has_dev_shm = os.path.isdir("/dev/shm")
needs_dev_shm = pytest.mark.skipif(not has_dev_shm, reason="no /dev/shm to inspect")

BOTH_MODES = pytest.mark.parametrize("persistent", [True, False], ids=["pool", "respawn"])


def shm_segments() -> frozenset:
    return frozenset(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))


class ExplodingSampler(NeighborSampler):
    """Picklable sampler that detonates partway through the epoch."""

    def __init__(self, fanouts, *, fail_at: int = 1):
        super().__init__(fanouts)
        self.fail_at = fail_at
        self.calls = 0

    def sample(self, graph, seeds, *, rng=None):
        # each worker process holds its own copy, so `calls` counts that
        # rank's steps — the crash happens mid-epoch, not at step 0
        if self.calls >= self.fail_at:
            raise RuntimeError("injected mid-epoch crash")
        self.calls += 1
        return super().sample(graph, seeds, rng=rng)


class SlowSampler(NeighborSampler):
    """Picklable sampler that naps per call — stretches the epoch so the
    parent can kill a worker mid-flight."""

    def __init__(self, fanouts, *, nap: float = 0.2):
        super().__init__(fanouts)
        self.nap = nap

    def sample(self, graph, seeds, *, rng=None):
        time.sleep(self.nap)
        return super().sample(graph, seeds, rng=rng)


def crashing_engine(ds, *, persistent=True, sampler=None, **kw):
    _, model = make_task("neighbor-sage", ds.layer_dims(2), seed=7, fanouts=[5, 5])
    if sampler is None:
        sampler = ExplodingSampler([5, 5], fail_at=kw.pop("fail_at", 1))
    return MultiProcessEngine(
        ds,
        sampler,
        model,
        num_processes=2,
        # small global batch -> several steps per epoch, so fail_at=1
        # really does detonate mid-epoch, after healthy collectives ran
        global_batch_size=16,
        backend="process",
        backend_options={"timeout": 30.0},
        seed=0,
        persistent=persistent,
        **kw,
    )


class TestCrashInjection:
    @BOTH_MODES
    def test_worker_error_is_surfaced(self, tiny_dataset, persistent):
        engine = crashing_engine(tiny_dataset, persistent=persistent)
        with pytest.raises(RuntimeError, match="injected mid-epoch crash"):
            engine.train_epoch()

    @needs_dev_shm
    @BOTH_MODES
    def test_no_segment_leak_on_worker_crash(self, tiny_dataset, persistent):
        before = shm_segments()
        engine = crashing_engine(tiny_dataset, persistent=persistent)
        with pytest.raises(RuntimeError):
            engine.train_epoch()
        # the failed epoch must have reaped children and unlinked every
        # segment — graph store, collective world *and* the persistent
        # pool's param store — without waiting for engine.shutdown()
        assert shm_segments() == before
        assert engine._backend._store is None
        assert engine._backend.pool is None

    @needs_dev_shm
    @BOTH_MODES
    def test_no_segment_leak_with_prefetch(self, tiny_dataset, persistent):
        before = shm_segments()
        engine = crashing_engine(
            tiny_dataset, persistent=persistent, prefetch=True,
            sampler_workers=2, queue_depth=2,
        )
        with pytest.raises(RuntimeError):
            engine.train_epoch()
        assert shm_segments() == before

    @BOTH_MODES
    def test_children_reaped_after_crash(self, tiny_dataset, persistent):
        engine = crashing_engine(tiny_dataset, persistent=persistent)
        with pytest.raises(RuntimeError):
            engine.train_epoch()
        # join any transient mp helpers, then assert no rank worker lives
        for p in mp.active_children():
            p.join(5.0)
        assert not [p for p in mp.active_children() if p.is_alive()]

    @BOTH_MODES
    def test_shutdown_idempotent_after_crash(self, tiny_dataset, persistent):
        engine = crashing_engine(tiny_dataset, persistent=persistent)
        with pytest.raises(RuntimeError):
            engine.train_epoch()
        engine.shutdown()
        engine.shutdown()

    @BOTH_MODES
    def test_engine_recovers_with_fresh_sampler(self, tiny_dataset, persistent):
        """After a failed epoch the engine still trains (store and pool
        re-created on demand)."""
        engine = crashing_engine(tiny_dataset, persistent=persistent)
        with pytest.raises(RuntimeError):
            engine.train_epoch()
        engine.sampler = NeighborSampler([5, 5])
        stats = engine.train_epoch()
        assert np.isfinite(stats.mean_loss)
        engine.shutdown()


def train_through_one_failed_epoch(engine, fail_at):
    """Epoch 0, then an epoch 1 whose sampler explodes, then its retry."""
    try:
        engine.train_epoch()
        engine.sampler = ExplodingSampler([5, 5], fail_at=fail_at)
        with pytest.raises(RuntimeError, match="injected mid-epoch crash"):
            engine.train_epoch()
        engine.sampler = NeighborSampler([5, 5])
        engine.train_epoch()
    finally:
        engine.shutdown()


def assert_matches_never_failed_engine(engine, ds):
    _, model = make_task("neighbor-sage", ds.layer_dims(2), seed=7, fanouts=[5, 5])
    reference = MultiProcessEngine(
        ds, NeighborSampler([5, 5]), model, num_processes=2,
        global_batch_size=16, backend="inline", seed=0,
    )
    reference.train(2)
    assert engine.history.losses == reference.history.losses
    for k, v in reference.model.state_dict().items():
        np.testing.assert_array_equal(engine.model.state_dict()[k], v)
    ours, ref = engine.optimizer.state_dict(), reference.optimizer.state_dict()
    assert ours["t"] == ref["t"]
    for key in ("m", "v"):
        for a, b in zip(ours[key], ref[key], strict=True):
            np.testing.assert_array_equal(a, b)


class TestRetryAfterFailure:
    """A failed epoch leaves the engine's weights and optimizer at the
    previous epoch's; the retry then lands bit for bit where an engine
    that never failed does."""

    @BOTH_MODES
    def test_retry_resumes_from_last_successful_epoch(self, tiny_dataset, persistent):
        engine = crashing_engine(
            tiny_dataset, persistent=persistent, sampler=NeighborSampler([5, 5])
        )
        train_through_one_failed_epoch(engine, fail_at=1)
        assert_matches_never_failed_engine(engine, tiny_dataset)

    @pytest.mark.parametrize("prefetch", [False, True], ids=["sync", "prefetch"])
    def test_inline_retry_resumes_from_last_successful_epoch(self, tiny_dataset, prefetch):
        _, model = make_task("neighbor-sage", tiny_dataset.layer_dims(2), seed=7, fanouts=[5, 5])
        engine = MultiProcessEngine(
            tiny_dataset, NeighborSampler([5, 5]), model, num_processes=2,
            global_batch_size=16, backend="inline", seed=0,
            prefetch=prefetch, sampler_workers=2, queue_depth=2,
        )
        # the fifth sampler call of the epoch fails: inline shares one
        # sampler between the ranks, so step 0 (both ranks, one optimizer
        # step) has run by then, prefetched or not
        train_through_one_failed_epoch(engine, fail_at=4)
        assert_matches_never_failed_engine(engine, tiny_dataset)
        assert not [t for t in threading.enumerate() if t.name.startswith("sampler-r")]


class TestKilledWorker:
    """A rank worker killed outright (SIGKILL) mid-epoch: the pool is
    reaped, all segments unlinked, and the error names the dead child."""

    def _kill_one_mid_epoch(self, engine):
        """Run one epoch in a thread; SIGKILL a pool worker once it's up."""
        errors: list[BaseException] = []

        def run():
            try:
                engine.train_epoch()
            except BaseException as exc:
                errors.append(exc)

        t = threading.Thread(target=run)
        t.start()
        deadline = time.monotonic() + 10.0
        victim = None
        while time.monotonic() < deadline and victim is None:
            pool = engine._backend.pool
            if pool is not None and pool.procs:
                victim = pool.procs[0]
            else:
                time.sleep(0.01)
        assert victim is not None, "pool never launched"
        # wait until the epoch is actually in flight, then kill
        time.sleep(0.3)
        victim.kill()
        t.join(60.0)
        assert not t.is_alive(), "epoch did not fail after worker kill"
        return errors

    def test_killed_worker_raises_clear_error(self, tiny_dataset):
        engine = crashing_engine(
            tiny_dataset, sampler=SlowSampler([5, 5], nap=0.25)
        )
        errors = self._kill_one_mid_epoch(engine)
        assert errors, "killed worker produced no error"
        assert "died" in str(errors[0]) or "collective broken" in str(errors[0])
        engine.shutdown()

    @needs_dev_shm
    def test_killed_worker_leaks_nothing(self, tiny_dataset):
        before = shm_segments()
        engine = crashing_engine(
            tiny_dataset, sampler=SlowSampler([5, 5], nap=0.25)
        )
        errors = self._kill_one_mid_epoch(engine)
        assert errors
        assert shm_segments() == before
        assert engine._backend.pool is None
        # and the engine recovers on the next epoch
        engine.sampler = NeighborSampler([5, 5])
        stats = engine.train_epoch()
        assert np.isfinite(stats.mean_loss)
        engine.shutdown()
        assert shm_segments() == before
