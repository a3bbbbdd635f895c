"""Multi-Process Engine: semantics preservation and backends."""

import copy
import os
import time

import numpy as np
import pytest

from repro.autograd.module import Module, Parameter
from repro.autograd.optim import make_optimizer
from repro.autograd.tensor import Tensor
from repro.core.config import RuntimeConfig
from repro.core.engine import MultiProcessEngine
from repro.distributed.ddp import average_gradients
from repro.exec.base import compute_loss
from repro.gnn.models import make_task
from repro.utils.rng import derive_rng


class ExplodingSampler:
    """Module-level (hence picklable — the persistent runtime ships the
    sampler over the command queue) sampler that always fails."""

    num_layers = 2

    def sample(self, graph, seeds, *, rng=None):
        raise RuntimeError("boom")


class SometimesBiased(Module):
    """A task model plus an output bias that only rank 0 uses, and only on
    even steps: the bias has a gradient on one rank at even steps and on
    no rank at odd steps, after its Adam moments are already nonzero.
    Module-level, so the process backend can pickle it."""

    def __init__(self, inner, num_classes):
        super().__init__()
        self.inner = inner
        self.bias = Parameter(np.zeros(num_classes))

    def forward(self, blocks, x, *, dropout_key=()):
        out = self.inner(blocks, x, dropout_key=dropout_key)
        if dropout_key and dropout_key[2] % 2 == 0 and dropout_key[3] == 0:
            out = out + self.bias
        return out


class SlowSeventeenSampler:
    """Sleeps 50 ms before sampling a 17-seed chunk.  A global batch of
    33 splits 17/16 over two ranks, so only rank 0 sleeps and rank 1
    waits for it at every step's all-reduce."""

    delay = 0.05

    def __init__(self, inner):
        self.inner = inner
        self.num_layers = inner.num_layers

    def sample(self, graph, seeds, *, rng=None):
        if len(seeds) == 17:
            time.sleep(self.delay)
        return self.inner.sample(graph, seeds, rng=rng)


def build_task(ds, task, seed):
    return make_task(
        task, ds.layer_dims(2), seed=seed, dropout=0.5,
        fanouts=[5, 5] if task == "neighbor-sage" else None,
    )


def build_engine(ds, n=2, backend="inline", batch=64, seed=0, task="neighbor-sage", **kw):
    sampler, model = build_task(ds, task, seed)
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


def replica_loop(ds, n, task, *, epochs, batch=64, seed=0, lr=3e-3):
    """Synchronous SGD with one model copy per rank: ``n`` deep copies and
    ``n`` Adam optimizers; every step averages the ranks' gradients onto
    each copy and steps every optimizer.  Returns the epoch mean losses
    and the copies."""
    sampler, model = build_task(ds, task, seed)
    replicas = [model] + [copy.deepcopy(model) for _ in range(n - 1)]
    optimizers = [make_optimizer("adam", r.parameters(), lr) for r in replicas]
    features = Tensor(ds.features)
    mean_losses = []
    for epoch in range(epochs):
        perm = derive_rng(seed, "shuffle", epoch).permutation(ds.train_idx)
        losses = []
        for step in range(max(1, len(perm) // batch)):
            global_batch = perm[step * batch : (step + 1) * batch]
            for rank, replica in enumerate(replicas):
                replica.zero_grad()
                seeds = np.array_split(global_batch, n)[rank]
                rng = derive_rng(seed, "sample", epoch, step, rank)
                loss, _ = compute_loss(
                    sampler.sample(ds.graph, seeds, rng=rng),
                    features,
                    ds.labels,
                    replica,
                    (seed, epoch, step, rank),
                )
                loss.backward()
                losses.append(loss.item())
            rank_grads = [[p.grad for p in r.parameters()] for r in replicas]
            for replica, opt in zip(replicas, optimizers):
                average_gradients(replica.parameters(), rank_grads)
                opt.step()
        mean_losses.append(float(np.mean(losses)))
    return mean_losses, replicas


class TestOneTrainingState:
    """The engine's one model and one optimizer reproduce the
    one-copy-per-rank algorithm bit for bit."""

    @pytest.mark.parametrize("task", ["neighbor-sage", "shadow-gcn"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_one_model_copy_per_rank(self, tiny_dataset, n, task):
        eng = build_engine(tiny_dataset, n=n, task=task, seed=3)
        losses = eng.train(2).losses
        ref_losses, replicas = replica_loop(tiny_dataset, n, task, epochs=2, seed=3)
        assert losses == ref_losses
        for replica in replicas:
            for k, v in replica.state_dict().items():
                np.testing.assert_array_equal(eng.model.state_dict()[k], v)


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


class TestProcessBackend:
    def test_process_epoch_runs(self, tiny_dataset):
        with build_engine(tiny_dataset, n=2, backend="process") as eng:
            stats = eng.train_epoch()
        assert stats.num_global_steps >= 1
        assert stats.mean_loss > 0
        assert stats.sampled_edges > 0

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


#: the process backend's two worker lifecycles (the persistent flag keeps
#: the pool across epochs or shuts it down after each one)
PROCESS_MODES = [
    ("process", True),
    ("process", False),
]


class TestBackendParity:
    """Same seed => bit-identical losses and weights on both backends, at
    every rank count and under both worker lifecycles: the all-reduce
    sums ranks in the order ``inline``'s gradient average does."""

    @pytest.mark.parametrize("backend,persistent", PROCESS_MODES)
    def test_loss_trajectory_matches_inline(self, tiny_dataset, backend, persistent):
        a = build_engine(tiny_dataset, n=2, backend="inline", seed=3)
        b = build_engine(tiny_dataset, n=2, backend=backend, seed=3, persistent=persistent)
        try:
            la = a.train(3).losses
            lb = b.train(3).losses
        finally:
            b.shutdown()
        assert lb == la

    @pytest.mark.parametrize("backend,persistent", PROCESS_MODES)
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

    @pytest.mark.parametrize("task", ["neighbor-sage", "shadow-gcn"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_process_equals_inline_at_every_rank_count(self, tiny_dataset, n, task):
        a = build_engine(tiny_dataset, n=n, backend="inline", seed=3, task=task)
        b = build_engine(tiny_dataset, n=n, backend="process", seed=3, task=task)
        try:
            la = a.train(2).losses
            lb = b.train(2).losses
        finally:
            b.shutdown()
        assert lb == la
        for k, v in a.model.state_dict().items():
            np.testing.assert_array_equal(b.model.state_dict()[k], v)

    def test_parameter_without_gradient_matches_inline(self, tiny_dataset):
        """A parameter with no gradient on any rank keeps ``grad=None`` on
        both backends, so Adam leaves it alone; an all-reduced zero
        gradient would decay its moments and move it."""

        def engine(backend):
            sampler, inner = build_task(tiny_dataset, "neighbor-sage", 3)
            model = SometimesBiased(inner, tiny_dataset.layer_dims(2)[-1])
            return MultiProcessEngine(
                tiny_dataset, sampler, model, num_processes=2,
                global_batch_size=32, backend=backend, seed=3,
            )

        a, b = engine("inline"), engine("process")
        try:
            la = a.train(2).losses
            lb = b.train(2).losses
        finally:
            b.shutdown()
        assert a.history.epochs[0].num_global_steps >= 2
        assert lb == la
        for k, v in a.model.state_dict().items():
            np.testing.assert_array_equal(b.model.state_dict()[k], v)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_stage_timings_mean_the_same(self, tiny_dataset, backend, monkeypatch):
        """``sample_wait`` is time acquiring batches and ``compute_time``
        forward plus backward, on both backends: rank 0's slow sampling
        lands in ``sample_wait``, and under ``process`` rank 1's wait for
        it at the all-reduce lands in neither.

        The rank processes are spawned with single-threaded BLAS, as the
        perf harness runs them: two forked ranks whose BLAS threads
        share two cores can take several times inline's forward and
        backward time, which would blur this bound."""
        options = {}
        if backend == "process":
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
            options = {"start_method": "spawn"}
        sampler, model = build_task(tiny_dataset, "neighbor-sage", 0)
        eng = MultiProcessEngine(
            tiny_dataset, SlowSeventeenSampler(sampler), model, num_processes=2,
            global_batch_size=33, backend=backend, seed=0, backend_options=options,
        )
        try:
            stats = eng.train_epoch()
        finally:
            eng.shutdown()
        steps = stats.num_global_steps
        assert steps >= 2
        assert stats.sample_wait >= steps * SlowSeventeenSampler.delay
        assert stats.compute_time > 0.0
        if backend == "process":
            # rank 1 waits about `delay` per step at the all-reduce
            assert stats.compute_time < steps * SlowSeventeenSampler.delay / 2

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
        assert lb == la


def assert_same_training(a, b):
    """Bit-equal losses, weights and optimizer state (Adam's m, v, t)."""
    assert a.history.losses == b.history.losses
    for k, v in a.model.state_dict().items():
        np.testing.assert_array_equal(b.model.state_dict()[k], v)
    sa, sb = a.optimizer.state_dict(), b.optimizer.state_dict()
    assert sa["t"] == sb["t"]
    for key in ("m", "v"):
        for x, y in zip(sa[key], sb[key]):
            np.testing.assert_array_equal(x, y)


class TestReconfigure:
    """``reconfigure`` changes how the next epochs run, never what they
    compute: the model, the optimizer and the epoch counter carry over."""

    def run_sequence(self, ds, steps):
        eng = build_engine(ds, n=2)
        optimizer = eng.optimizer
        try:
            for n, backend in steps:
                eng.reconfigure(RuntimeConfig(n, 1, 1, backend=backend))
                eng.train_epoch()
        finally:
            eng.shutdown()
        assert eng.optimizer is optimizer
        return eng

    def test_backend_switches_match_all_inline(self, tiny_dataset):
        """inline -> process -> inline -> process back onto the parked
        pool, at n = 2, 3, 1, 2, ends bit-equal to the same n sequence
        run all-inline."""
        ns = (2, 3, 1, 2)
        mixed = self.run_sequence(
            tiny_dataset, zip(ns, ("inline", "process", "inline", "process"))
        )
        inline = self.run_sequence(tiny_dataset, zip(ns, ("inline",) * 4))
        assert_same_training(mixed, inline)
        last = mixed.history.epochs[-1]
        assert (last.pool_launches, last.pool_parked) == (1, 1)

    @pytest.mark.parametrize(
        "n,bindings", [(65, None), (3, [None, None])], ids=["n>batch", "short-bindings"]
    )
    def test_rejected_reconfigure_changes_nothing(self, tiny_dataset, n, bindings):
        eng = build_engine(tiny_dataset, n=2)
        untouched = build_engine(tiny_dataset, n=2)
        eng.train_epoch()
        untouched.train_epoch()
        bad = RuntimeConfig(
            n, 2, 1, backend="process", prefetch=True, queue_depth=3, persistent=False
        )
        with pytest.raises(ValueError):
            eng.reconfigure(bad, bindings=bindings)
        knobs = ("n", "backend", "bindings", "prefetch", "queue_depth",
                 "sampler_workers", "persistent")
        assert [getattr(eng, k) for k in knobs] == [getattr(untouched, k) for k in knobs]
        assert eng._backend is eng._backends["inline"]
        eng.train_epoch()
        untouched.train_epoch()
        assert_same_training(eng, untouched)


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
        assert lb == la
