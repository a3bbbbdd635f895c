"""Multi-Process Engine: semantics preservation and backends."""

import os

import numpy as np
import pytest

from repro.core.engine import MultiProcessEngine
from repro.gnn.models import make_task

ALL_BACKENDS = ("inline", "thread", "process")


class ExplodingSampler:
    """Module-level (hence picklable — the persistent runtime ships the
    sampler over the command queue) sampler that always fails."""

    num_layers = 2

    def sample(self, graph, seeds, *, rng=None):
        raise RuntimeError("boom")


def build_engine(ds, n=2, backend="inline", batch=64, seed=0, task="neighbor-sage", **kw):
    sampler, model = make_task(task, ds.layer_dims(2), seed=seed, fanouts=[5, 5] if task == "neighbor-sage" else None)
    return MultiProcessEngine(
        ds,
        sampler,
        model,
        num_processes=n,
        global_batch_size=batch,
        backend=backend,
        seed=seed,
        **kw,
    )


class TestConstruction:
    def test_replica_count(self, tiny_dataset):
        eng = build_engine(tiny_dataset, n=3)
        assert len(eng.replicas) == 3
        assert eng.model is eng.replicas[0]

    def test_per_rank_batch(self, tiny_dataset):
        eng = build_engine(tiny_dataset, n=4, batch=64)
        assert eng.per_rank_batch == 16

    def test_rejects_batch_smaller_than_ranks(self, tiny_dataset):
        with pytest.raises(ValueError):
            build_engine(tiny_dataset, n=8, batch=4)

    def test_rejects_unknown_backend(self, tiny_dataset):
        with pytest.raises(ValueError):
            build_engine(tiny_dataset, backend="mpi")


class TestTraining:
    def test_epoch_stats(self, tiny_dataset):
        eng = build_engine(tiny_dataset, n=2)
        stats = eng.train_epoch()
        assert stats.epoch == 0
        assert stats.num_global_steps >= 1
        assert stats.num_minibatches == stats.num_global_steps * 2
        assert stats.mean_loss > 0
        assert stats.sampled_edges > 0
        assert stats.epoch_time > 0

    def test_loss_decreases_over_epochs(self, tiny_dataset):
        eng = build_engine(tiny_dataset, n=2, batch=128)
        hist = eng.train(6)
        assert hist.losses[-1] < hist.losses[0]

    def test_replicas_stay_synchronised(self, tiny_dataset):
        """After any number of steps all replicas hold identical weights —
        the DDP invariant."""
        eng = build_engine(tiny_dataset, n=3)
        eng.train(2)
        ref = eng.replicas[0].state_dict()
        for rep in eng.replicas[1:]:
            for k, v in rep.state_dict().items():
                np.testing.assert_allclose(v, ref[k], rtol=1e-5, atol=1e-6)

    def test_deterministic_in_seed(self, tiny_dataset):
        a = build_engine(tiny_dataset, n=2, seed=5)
        b = build_engine(tiny_dataset, n=2, seed=5)
        a.train(2)
        b.train(2)
        for k, v in a.model.state_dict().items():
            np.testing.assert_array_equal(v, b.model.state_dict()[k])

    def test_history_accumulates(self, tiny_dataset):
        eng = build_engine(tiny_dataset)
        eng.train(3)
        assert len(eng.history.epochs) == 3
        assert eng.history.total_time > 0
        assert eng.history.total_minibatches > 0


class TestEvaluation:
    def test_accuracy_in_unit_interval(self, tiny_dataset):
        eng = build_engine(tiny_dataset)
        acc = eng.evaluate()
        assert 0.0 <= acc <= 1.0

    def test_training_improves_accuracy(self, tiny_dataset):
        eng = build_engine(tiny_dataset, n=2, batch=128)
        before = eng.evaluate()
        eng.train(8)
        after = eng.evaluate()
        assert after > before

    def test_record_accuracy_builds_curve(self, tiny_dataset):
        eng = build_engine(tiny_dataset)
        eng.train(2, eval_every=1)
        curve = eng.history.accuracy_curve
        assert len(curve) == 2
        xs = [x for x, _ in curve]
        assert xs == sorted(xs)


class TestThreadBackend:
    def test_thread_epoch_runs(self, tiny_dataset):
        eng = build_engine(tiny_dataset, n=2, backend="thread")
        stats = eng.train_epoch()
        assert stats.num_global_steps >= 1
        assert stats.mean_loss > 0

    def test_thread_replicas_synchronised(self, tiny_dataset):
        eng = build_engine(tiny_dataset, n=3, backend="thread")
        eng.train(2)
        ref = eng.replicas[0].state_dict()
        for rep in eng.replicas[1:]:
            for k, v in rep.state_dict().items():
                np.testing.assert_allclose(v, ref[k], rtol=1e-4, atol=1e-5)

    def test_thread_matches_inline_loss_scale(self, tiny_dataset):
        """Thread and inline backends implement the same algorithm; their
        loss trajectories should track closely."""
        a = build_engine(tiny_dataset, n=2, backend="inline", seed=1)
        b = build_engine(tiny_dataset, n=2, backend="thread", seed=1)
        la = a.train(3).losses
        lb = b.train(3).losses
        np.testing.assert_allclose(la, lb, rtol=1e-3)


class TestProcessBackend:
    def test_process_epoch_runs(self, tiny_dataset):
        with build_engine(tiny_dataset, n=2, backend="process") as eng:
            stats = eng.train_epoch()
        assert stats.num_global_steps >= 1
        assert stats.mean_loss > 0
        assert stats.sampled_edges > 0

    def test_process_replicas_synchronised(self, tiny_dataset):
        with build_engine(tiny_dataset, n=2, backend="process") as eng:
            eng.train(2)
            ref = eng.replicas[0].state_dict()
            for rep in eng.replicas[1:]:
                for k, v in rep.state_dict().items():
                    np.testing.assert_allclose(v, ref[k], rtol=1e-5, atol=1e-6)

    def test_shutdown_unlinks_all_segments(self, tiny_dataset):
        if not os.path.isdir("/dev/shm"):
            pytest.skip("no /dev/shm to inspect")
        eng = build_engine(tiny_dataset, n=2, backend="process")
        eng.train_epoch()
        store = eng._backend._store
        names = [spec.shm_name for spec in store.spec.values()]
        assert all(os.path.exists(f"/dev/shm/{n}") for n in names)
        eng.shutdown()
        assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)

    def test_shutdown_is_idempotent_and_engine_reusable(self, tiny_dataset):
        eng = build_engine(tiny_dataset, n=2, backend="process")
        eng.train_epoch()
        eng.shutdown()
        eng.shutdown()
        eng.train_epoch()  # backend re-creates the store on demand
        eng.shutdown()
        assert len(eng.history.epochs) == 2

    @pytest.mark.parametrize("persistent", [True, False])
    def test_worker_failure_propagates(self, tiny_dataset, persistent):
        _, model = make_task("neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5])
        eng = MultiProcessEngine(
            tiny_dataset, ExplodingSampler(), model, num_processes=2, global_batch_size=64,
            backend="process", backend_options={"timeout": 30.0}, persistent=persistent,
        )
        with pytest.raises(RuntimeError, match="boom"):
            eng.train_epoch()
        eng.shutdown()


#: every execution mode the engine offers: backend x persistent (the
#: persistent flag only changes the process backend's worker lifecycle)
ALL_MODES = [
    ("thread", True),
    ("process", True),
    ("process", False),
]


class TestBackendParity:
    """Same seed => same trajectory on every backend and worker
    lifecycle (acceptance criterion: inline/thread/process x
    persistent on/off)."""

    @pytest.mark.parametrize("backend,persistent", ALL_MODES)
    def test_loss_trajectory_matches_inline(self, tiny_dataset, backend, persistent):
        a = build_engine(tiny_dataset, n=2, backend="inline", seed=3)
        b = build_engine(tiny_dataset, n=2, backend=backend, seed=3, persistent=persistent)
        try:
            la = a.train(3).losses
            lb = b.train(3).losses
        finally:
            b.shutdown()
        # a two-rank gradient sum is order-free, so every backend is exact
        assert lb == la

    @pytest.mark.parametrize("backend,persistent", ALL_MODES)
    def test_final_weights_match_inline(self, tiny_dataset, backend, persistent):
        a = build_engine(tiny_dataset, n=2, backend="inline", seed=3)
        b = build_engine(tiny_dataset, n=2, backend=backend, seed=3, persistent=persistent)
        try:
            a.train(2)
            b.train(2)
        finally:
            b.shutdown()
        for k, v in a.model.state_dict().items():
            np.testing.assert_array_equal(b.model.state_dict()[k], v)

    def test_persistent_pool_matches_respawn_bitwise(self, tiny_dataset):
        """The two process-backend lifecycles are the *same algorithm*:
        loss streams agree exactly, not merely to tolerance."""
        a = build_engine(tiny_dataset, n=2, backend="process", seed=3, persistent=False)
        b = build_engine(tiny_dataset, n=2, backend="process", seed=3, persistent=True)
        try:
            la = a.train(3).losses
            lb = b.train(3).losses
        finally:
            a.shutdown()
            b.shutdown()
        assert la == lb
        for k, v in a.model.state_dict().items():
            np.testing.assert_array_equal(b.model.state_dict()[k], v)

    def test_inline_reruns_are_bit_identical(self, tiny_dataset):
        a = build_engine(tiny_dataset, n=2, seed=9)
        b = build_engine(tiny_dataset, n=2, seed=9)
        a.train(2)
        b.train(2)
        assert a.history.losses == b.history.losses
        for k, v in a.model.state_dict().items():
            np.testing.assert_array_equal(v, b.model.state_dict()[k])

    def test_process_multi_epoch_optimizer_state_carries(self, tiny_dataset):
        """Adam moments must round-trip through the workers: a diverging
        second epoch would reveal lost optimizer state."""
        a = build_engine(tiny_dataset, n=2, backend="inline", seed=5)
        b = build_engine(tiny_dataset, n=2, backend="process", seed=5)
        try:
            la = a.train(4).losses
            lb = b.train(4).losses
        finally:
            b.shutdown()
        np.testing.assert_allclose(lb, la, atol=1e-6, rtol=0)


class TestShadowTask:
    def test_shadow_engine_trains(self, tiny_dataset):
        eng = build_engine(tiny_dataset, n=2, task="shadow-gcn")
        hist = eng.train(3)
        assert hist.losses[-1] < hist.losses[0] * 1.5

    def test_shadow_process_backend_parity(self, tiny_dataset):
        a = build_engine(tiny_dataset, n=2, task="shadow-gcn", backend="inline", seed=1)
        b = build_engine(tiny_dataset, n=2, task="shadow-gcn", backend="process", seed=1)
        try:
            la = a.train(2).losses
            lb = b.train(2).losses
        finally:
            b.shutdown()
        np.testing.assert_allclose(lb, la, atol=1e-6, rtol=0)
