"""Serving under pool-worker failure: clean errors, no leaks, recovery.

The serving counterpart of ``tests/exec/test_process_crash.py``: a rank
worker SIGKILL'd (or exploding) mid-``InferPlan`` must surface a clear
error from ``predict``, the engine/pool must reap every child and unlink
all shared-memory segments on the failure path, and the engine must
recover on the next request by relaunching lazily.
"""

import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.sampling.base import Sampler
from repro.sampling.neighbor import NeighborSampler
from repro.serve.engine import InferenceEngine
from tests.serve.test_frontier_parity import REQUEST_SHAPES, predict_as, reference

has_dev_shm = os.path.isdir("/dev/shm")
needs_dev_shm = pytest.mark.skipif(not has_dev_shm, reason="no /dev/shm to inspect")

SHAPES = pytest.mark.parametrize("shape", REQUEST_SHAPES)


def shm_segments() -> frozenset:
    return frozenset(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))


class SlowServeSampler(NeighborSampler):
    """Picklable sampler that naps per request — stretches an InferPlan
    so the parent can kill a worker mid-batch."""

    def __init__(self, fanouts, *, nap: float = 0.1):
        super().__init__(fanouts)
        self.nap = nap

    def sample(self, graph, seeds, *, rng=None):
        time.sleep(self.nap)
        return super().sample(graph, seeds, rng=rng)

    # batches of two or more: loop through the napping `sample`, not the fused kernel
    sample_merged = Sampler.sample_merged


class ExplodingServeSampler(NeighborSampler):
    """Picklable sampler that detonates inside the worker's forward."""

    def sample(self, graph, seeds, *, rng=None):
        raise RuntimeError("injected serving crash")

    # batches of two or more: loop through the exploding `sample`
    sample_merged = Sampler.sample_merged


def pool_engine(snapshot, dataset, *, sampler=None):
    engine = InferenceEngine(
        snapshot, dataset, mode="pool", workers=2, cache_entries=0, timeout=30.0,
    )
    if sampler is not None:
        engine.sampler = sampler  # rides each InferPlan to the workers
    return engine


def kill_one_mid_batch(engine, nodes, shape="frontier"):
    """predict() in a thread; SIGKILL a pool worker once the batch is
    in flight.  Returns the errors the predict call raised."""
    errors: list[BaseException] = []

    def run():
        try:
            predict_as(engine, nodes, shape)
        except BaseException as exc:
            errors.append(exc)

    t = threading.Thread(target=run)
    t.start()
    deadline = time.monotonic() + 10.0
    victim = None
    while time.monotonic() < deadline and victim is None:
        pool = engine.pool
        if pool is not None and pool.procs:
            victim = pool.procs[0]
        else:
            time.sleep(0.01)
    assert victim is not None, "pool never launched"
    time.sleep(0.3)  # let the InferPlan land in the worker
    victim.kill()
    t.join(60.0)
    assert not t.is_alive(), "predict did not fail after worker kill"
    return errors


class TestServeCrash:
    @SHAPES
    def test_worker_error_is_surfaced(self, tiny_dataset, trained_snapshot, shape):
        with pool_engine(
            trained_snapshot, tiny_dataset, sampler=ExplodingServeSampler([5, 5]),
        ) as eng:
            with pytest.raises(RuntimeError, match="injected serving crash"):
                predict_as(eng, tiny_dataset.val_idx[:6], shape)

    @needs_dev_shm
    @SHAPES
    def test_killed_worker_leaks_nothing(self, tiny_dataset, trained_snapshot, shape):
        before = shm_segments()
        eng = pool_engine(
            trained_snapshot, tiny_dataset, sampler=SlowServeSampler([5, 5], nap=0.15),
        )
        try:
            errors = kill_one_mid_batch(eng, tiny_dataset.val_idx[:8], shape)
            assert errors, "killed worker produced no error"
            assert "died" in str(errors[0]) or "collective broken" in str(errors[0])
            # the failed batch reaped the pool's workers and unlinked its
            # segments; the engine's own graph store/arena go at close()
            assert not eng.pool.procs
        finally:
            eng.close()
        assert shm_segments() == before

    def test_engine_recovers_after_kill(self, tiny_dataset, trained_snapshot):
        """The next predict relaunches the pool lazily and serves the
        same bits as a healthy engine."""
        nodes = tiny_dataset.val_idx[:6]
        expected = reference(trained_snapshot, tiny_dataset, nodes)
        eng = pool_engine(
            trained_snapshot, tiny_dataset,
            sampler=SlowServeSampler([5, 5], nap=0.15),
        )
        try:
            errors = kill_one_mid_batch(eng, nodes)
            assert errors
            eng.sampler = eng.snapshot.build_sampler()  # healthy again
            np.testing.assert_array_equal(eng.predict(nodes), expected)
            assert eng.pool.launches == 2  # crash relaunch, not a swap
        finally:
            eng.close()

    @needs_dev_shm
    def test_close_idempotent_after_crash(self, tiny_dataset, trained_snapshot):
        before = shm_segments()
        eng = pool_engine(
            trained_snapshot, tiny_dataset,
            sampler=ExplodingServeSampler([5, 5]),
        )
        with pytest.raises(RuntimeError):
            eng.predict(tiny_dataset.val_idx[:4])
        eng.close()
        eng.close()
        assert shm_segments() == before
        for p in mp.active_children():
            p.join(5.0)
        assert not [p for p in mp.active_children() if p.is_alive()]
