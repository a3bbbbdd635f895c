"""Persistent worker pool: reuse across epochs and reconfigurations, launch tax."""

import os

import numpy as np
import pytest

from repro.core.config import RuntimeConfig
from repro.core.engine import MultiProcessEngine
from repro.core.train_loop import make_train_fn
from repro.exec import WorkerPool, get_backend
from repro.gnn.models import make_task

has_dev_shm = os.path.isdir("/dev/shm")
needs_dev_shm = pytest.mark.skipif(not has_dev_shm, reason="no /dev/shm to inspect")


def shm_segments() -> frozenset:
    return frozenset(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))


def build_engine(ds, n=2, seed=0, persistent=True, backend="process", **kw):
    sampler, model = make_task("neighbor-sage", ds.layer_dims(2), seed=seed, fanouts=[5, 5])
    return MultiProcessEngine(
        ds,
        sampler,
        model,
        num_processes=n,
        global_batch_size=64,
        backend=backend,
        backend_options={"timeout": 30.0} if backend == "process" else None,
        seed=seed,
        persistent=persistent,
        **kw,
    )


class TestPoolPersistence:
    def test_worker_pids_stable_across_epochs(self, tiny_dataset):
        with build_engine(tiny_dataset) as eng:
            eng.train_epoch()
            pool = eng._backend.pool
            pids = pool.worker_pids()
            assert len(pids) == 2
            eng.train_epoch()
            eng.train_epoch()
            assert pool.worker_pids() == pids
            assert pool.launches == 1

    def test_launch_time_collapses_after_first_epoch(self, tiny_dataset, monkeypatch):
        """Only the first epoch forks: the same workers serve all three
        epochs, so later epochs pay no fork (asserted on what the pool
        does, not on wall-clock ratios that host load can invert)."""
        epoch_pids = []
        run_epoch = WorkerPool.run_epoch

        def recording_run_epoch(self, *args):
            epoch_pids.append(self.worker_pids())
            return run_epoch(self, *args)

        monkeypatch.setattr(WorkerPool, "run_epoch", recording_run_epoch)
        with build_engine(tiny_dataset) as eng:
            eng.train(3)
        epochs = eng.history.epochs
        assert len(epoch_pids) == 3 and len(epoch_pids[0]) == 2
        assert all(pids == epoch_pids[0] for pids in epoch_pids)
        assert [e.pool_launches for e in epochs] == [1, 1, 1]
        assert epochs[0].launch_time > 0

    def test_respawn_pays_launch_every_epoch(self, tiny_dataset):
        with build_engine(tiny_dataset, persistent=False) as eng:
            eng.train(3)
        assert all(e.launch_time > 0 for e in eng.history.epochs)

    @needs_dev_shm
    def test_respawn_is_a_one_epoch_pool(self, tiny_dataset, monkeypatch):
        """Respawn mode launches the pool at the top of every epoch and
        shuts it down at the end: fresh workers each epoch, none left
        running between epochs, nothing left in /dev/shm afterwards."""
        epoch_pids = []
        run_epoch = WorkerPool.run_epoch

        def recording_run_epoch(self, *args):
            epoch_pids.append(self.worker_pids())
            return run_epoch(self, *args)

        monkeypatch.setattr(WorkerPool, "run_epoch", recording_run_epoch)
        before = shm_segments()
        eng = build_engine(tiny_dataset, persistent=False)
        try:
            for epoch in range(1, 4):
                stats = eng.train_epoch()
                pool = eng._backend.pool
                assert pool.procs == []
                assert pool.launches == epoch
                assert stats.pool_launches == epoch
        finally:
            eng.shutdown()
        assert len(epoch_pids) == 3
        assert all(len(pids) == 2 for pids in epoch_pids)
        for a, b in zip(epoch_pids, epoch_pids[1:]):
            assert set(a).isdisjoint(b)
        assert shm_segments() == before

    def test_shutdown_stops_pool_and_engine_recovers(self, tiny_dataset):
        eng = build_engine(tiny_dataset)
        eng.train_epoch()
        first_pids = eng._backend.pool.worker_pids()
        eng.shutdown()
        assert eng._backend.pool is None
        eng.train_epoch()  # relaunches lazily
        assert eng._backend.pool.worker_pids() != first_pids
        eng.shutdown()

    @needs_dev_shm
    def test_shutdown_unlinks_pool_segments(self, tiny_dataset):
        before = shm_segments()
        eng = build_engine(tiny_dataset)
        eng.train_epoch()
        assert shm_segments() != before  # store + world + param store live
        eng.shutdown()
        assert shm_segments() == before


def epoch_at(eng, n):
    """Reconfigure ``eng`` to ``n`` process ranks and train one epoch."""
    eng.reconfigure(RuntimeConfig(n, 1, 1, backend="process"))
    return eng.train_epoch()


class TestPoolAcrossEngines:
    """An engine's process backend keeps its pool across
    reconfigurations — the tuner's re-launch pattern."""

    def test_same_n_reuses_workers(self, tiny_dataset):
        """The tuner pattern: one engine reconfigured between epochs."""
        with build_engine(tiny_dataset) as eng:
            epoch_at(eng, 2)
            pids = eng._backend.pool.worker_pids()
            epoch_at(eng, 2)
            assert eng._backend.pool.worker_pids() == pids
            assert eng._backend.pool.launches == 1

    def test_different_model_rebinds_pool(self, tiny_dataset):
        """Identical parameter topology but a different model object must
        not reuse the old pool's pickled templates (non-parameter config
        such as dropout rate would silently leak across engines)."""
        backend = get_backend("process", timeout=30.0)
        e1 = build_engine(tiny_dataset)
        e2 = build_engine(tiny_dataset)  # fresh model
        try:
            backend.run_epoch(e1, 0, e1._epoch_plan(0))
            pids = backend.pool.worker_pids()
            backend.run_epoch(e2, 0, e2._epoch_plan(0))
            assert backend.pool.launches == 2
            assert backend.pool.worker_pids() != pids
        finally:
            backend.shutdown()

    def test_n_change_rebinds_pool(self, tiny_dataset):
        with build_engine(tiny_dataset) as eng:
            epoch_at(eng, 2)
            pids2 = eng._backend.pool.worker_pids()
            epoch_at(eng, 3)
            pids3 = eng._backend.pool.worker_pids()
            assert len(pids3) == 3
            assert set(pids3).isdisjoint(pids2)
            assert eng._backend.pool.launches == 2


class TestPoolResize:
    """Shrinking ``n`` parks surplus workers instead of re-forking."""

    def test_shrink_parks_instead_of_reforking(self, tiny_dataset):
        with build_engine(tiny_dataset) as eng:
            epoch_at(eng, 3)
            pool = eng._backend.pool
            pids = pool.worker_pids()
            assert (pool.launches, pool.parked) == (1, 0)
            stats = epoch_at(eng, 1)
            assert pool.launches == 1  # no second fork
            assert pool.parked == 2
            assert pool.worker_pids() == pids  # everyone still alive
            # the diagnostics surface through the epoch stats
            assert stats.pool_parked == 2 and stats.pool_launches == 1

    def test_grow_back_within_forked_count_unparks(self, tiny_dataset):
        with build_engine(tiny_dataset) as eng:
            epoch_at(eng, 3)
            pids = eng._backend.pool.worker_pids()
            epoch_at(eng, 1)
            epoch_at(eng, 2)
            pool = eng._backend.pool
            assert pool.launches == 1
            assert pool.parked == 1
            assert pool.worker_pids() == pids

    def test_grow_beyond_forked_count_relaunches(self, tiny_dataset):
        with build_engine(tiny_dataset) as eng:
            epoch_at(eng, 2)
            epoch_at(eng, 3)
            pool = eng._backend.pool
            assert pool.launches == 2
            assert len(pool.worker_pids()) == 3
            assert pool.parked == 0

    def test_parked_pool_numerics_match_fresh_pools(self, tiny_dataset):
        """A shrink served by parked workers must be bit-identical to
        tearing down and re-forking at the smaller n."""

        def run(fresh_each: bool):
            losses = []
            with build_engine(tiny_dataset) as eng:
                for n in [2, 1, 2]:
                    losses.append(epoch_at(eng, n).mean_loss)
                    if fresh_each:
                        eng.shutdown()
            return losses

        assert run(fresh_each=False) == run(fresh_each=True)

    def test_single_world_resizes_across_sizes(self, tiny_dataset):
        """One world serves every active size: a shrink re-counts the
        shared resizable barrier in place instead of swapping to a
        pre-created per-size sibling world."""
        with build_engine(tiny_dataset) as eng:
            epoch_at(eng, 3)
            world = eng._backend.pool.world
            assert world.world_size == 3
            assert world.max_world_size == 3
            name = world._shm.name
            epoch_at(eng, 1)
            # same world object, same segment — only the size changed
            assert eng._backend.pool.world is world
            assert world._shm.name == name
            assert world.world_size == 1
            assert world._barrier.parties == 1
            epoch_at(eng, 2)
            assert eng._backend.pool.world is world
            assert world.world_size == 2
            assert world._barrier.parties == 2

    @needs_dev_shm
    def test_resize_leaks_nothing(self, tiny_dataset):
        before = shm_segments()
        with build_engine(tiny_dataset) as eng:
            epoch_at(eng, 3)
            epoch_at(eng, 1)
        assert shm_segments() == before


class TestTrainFnPersistence:
    def test_tuner_relaunches_share_pool(self, tiny_dataset):
        sampler, model = make_task(
            "neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5]
        )
        train = make_train_fn(tiny_dataset, sampler, model, global_batch_size=64, seed=0)
        try:
            cfg = RuntimeConfig(num_processes=2, sampling_cores=1, training_cores=1,
                                backend="process")
            train(config=cfg, epochs=1)
            pool = train.engine._backends["process"].pool
            pids = pool.worker_pids()
            # a tuner re-launch with the same n must reuse the forked
            # workers: no second fork, identical pids
            train(config=cfg, epochs=1)
            assert train.engine._backends["process"].pool is pool
            assert pool.worker_pids() == pids
            assert pool.launches == 1
        finally:
            train.close()

    @needs_dev_shm
    def test_close_releases_everything(self, tiny_dataset):
        before = shm_segments()
        sampler, model = make_task(
            "neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5]
        )
        train = make_train_fn(tiny_dataset, sampler, model, global_batch_size=64, seed=0)
        cfg = RuntimeConfig(num_processes=2, sampling_cores=1, training_cores=1,
                            backend="process")
        train(config=cfg, epochs=2)
        assert shm_segments() != before
        train.close()
        assert shm_segments() == before

    def test_losses_progress_across_relaunches(self, tiny_dataset):
        """The persistent pool must not reset learning between calls."""
        sampler, model = make_task(
            "neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5]
        )
        train = make_train_fn(tiny_dataset, sampler, model, global_batch_size=128, seed=0)
        try:
            cfg = RuntimeConfig(num_processes=2, sampling_cores=1, training_cores=1,
                                backend="process")
            w_before = {k: v.copy() for k, v in model.state_dict().items()}
            train(config=cfg, epochs=2)
            w_mid = {k: v.copy() for k, v in model.state_dict().items()}
            train(config=cfg, epochs=2)
            w_after = model.state_dict()
            assert any(not np.array_equal(w_before[k], w_mid[k]) for k in w_before)
            assert any(not np.array_equal(w_mid[k], w_after[k]) for k in w_mid)
        finally:
            train.close()

    def test_resize_sequence_matches_inline(self, tiny_dataset):
        """A relaunch sequence whose n changes between calls depends only
        on its configurations: the process backend's resized pool lands
        on the inline backend's bits."""

        def run(backend):
            sampler, model = make_task(
                "neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5]
            )
            train = make_train_fn(
                tiny_dataset, sampler, model, global_batch_size=64, seed=0, backend=backend
            )
            try:
                for n in (2, 3, 1):
                    cfg = RuntimeConfig(num_processes=n, sampling_cores=1, training_cores=1)
                    train(config=cfg, epochs=1)
            finally:
                train.close()
            return model.state_dict()

        inline, process = run("inline"), run("process")
        for k, v in inline.items():
            np.testing.assert_array_equal(process[k], v)

    def test_warm_pool_matches_cold_pool_numerics(self, tiny_dataset):
        """Pool reuse across tuner re-launches must not change numerics:
        two calls over one warm pool give bit-identical weights to two
        calls that each fork a cold pool."""

        def run(close_between: bool):
            sampler, model = make_task(
                "neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5]
            )
            train = make_train_fn(
                tiny_dataset, sampler, model, global_batch_size=64, seed=0
            )
            try:
                cfg = RuntimeConfig(num_processes=2, sampling_cores=1,
                                    training_cores=1, backend="process")
                train(config=cfg, epochs=1)
                if close_between:
                    train.close()  # next call forks a fresh pool
                train(config=cfg, epochs=1)
                return {k: v.copy() for k, v in model.state_dict().items()}
            finally:
                train.close()

        warm = run(close_between=False)
        cold = run(close_between=True)
        for k in warm:
            np.testing.assert_array_equal(warm[k], cold[k])
