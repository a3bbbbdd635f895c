"""make_train_fn / evaluate_accuracy helpers."""

import numpy as np
import pytest

from repro.core.argo import ARGO
from repro.core.config import RuntimeConfig
from repro.core.engine import MultiProcessEngine
from repro.core.train_loop import evaluate_accuracy, make_train_fn
from repro.gnn.models import make_task
from repro.tuning.space import ConfigSpace
from tests.core.test_engine import assert_same_training


@pytest.fixture
def task(tiny_dataset):
    return make_task("neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5])


class TestMakeTrainFn:
    def test_returns_epoch_times(self, tiny_dataset, task):
        sampler, model = task
        train = make_train_fn(tiny_dataset, sampler, model, global_batch_size=64)
        times = train(config=RuntimeConfig(2, 1, 1), epochs=2)
        assert len(times) == 2
        assert all(t > 0 for t in times)

    def test_weights_persist_across_calls(self, tiny_dataset, task):
        """Re-launching with a different process count must continue
        training the same model (paper: tuner re-launches the train fn)."""
        sampler, model = task
        train = make_train_fn(tiny_dataset, sampler, model, global_batch_size=64)
        before = {k: v.copy() for k, v in model.state_dict().items()}
        train(config=RuntimeConfig(1, 1, 1), epochs=1)
        mid = {k: v.copy() for k, v in model.state_dict().items()}
        steps = train.engine.history.epochs[0].num_global_steps
        assert train.engine.optimizer.state_dict()["t"] == steps
        train(config=RuntimeConfig(4, 1, 1), epochs=1)
        after = model.state_dict()
        assert any(not np.array_equal(before[k], mid[k]) for k in before)
        assert any(not np.array_equal(mid[k], after[k]) for k in mid)
        # Adam's step count continues across the re-launch
        assert train.engine.optimizer.state_dict()["t"] == 2 * steps

    def test_learning_progresses_across_relaunches(self, tiny_dataset, task):
        sampler, model = task
        train = make_train_fn(tiny_dataset, sampler, model, global_batch_size=128)
        acc0 = evaluate_accuracy(tiny_dataset, sampler, model, seed=0)
        for cfg in [(1, 1, 1), (2, 1, 1), (4, 1, 1), (2, 1, 1)]:
            train(config=RuntimeConfig(*cfg), epochs=2)
        acc1 = evaluate_accuracy(tiny_dataset, sampler, model, seed=0)
        assert acc1 > acc0

    def test_backend_taken_from_config(self, tiny_dataset, task):
        """backend=None defers to each config's own backend field."""
        sampler, model = task
        train = make_train_fn(tiny_dataset, sampler, model, global_batch_size=64)
        times = train(config=RuntimeConfig(2, 1, 1, backend="process"), epochs=1)
        assert len(times) == 1 and times[0] > 0

    def test_explicit_backend_overrides_config(self, tiny_dataset, task):
        sampler, model = task
        train = make_train_fn(
            tiny_dataset, sampler, model, global_batch_size=64, backend="inline"
        )
        # config asks for process, the fixed backend wins — still trains
        times = train(config=RuntimeConfig(2, 1, 1, backend="process"), epochs=1)
        assert len(times) == 1

    def test_platform_builds_process_bindings(self, tiny_dataset, task):
        from repro.platform.spec import ICE_LAKE_8380H

        sampler, model = task
        train = make_train_fn(
            tiny_dataset, sampler, model, global_batch_size=64,
            backend="process", platform=ICE_LAKE_8380H,
        )
        times = train(config=RuntimeConfig(2, 1, 1), epochs=1)
        assert len(times) == 1 and times[0] > 0

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_constant_argo_run_matches_plain_engine(self, tiny_dataset, task, backend):
        """A tuner that can only propose (1, 1, 1) re-launches at one
        config, so ARGO must train exactly as one plain engine at that
        config: the same per-epoch losses, weights and Adam state."""
        sampler, model = task
        train = make_train_fn(
            tiny_dataset, sampler, model, global_batch_size=64, backend=backend
        )
        try:
            ARGO(n_search=2, epoch=4, space=ConfigSpace(2, max_processes=1)).run(train)
        finally:
            train.close()
        fresh = make_task("neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5])
        with MultiProcessEngine(
            tiny_dataset, *fresh, global_batch_size=64, backend=backend
        ) as plain:
            plain.train(4)
        assert_same_training(train.engine, plain)


class TestEvaluateAccuracy:
    def test_unit_interval(self, tiny_dataset, task):
        sampler, model = task
        acc = evaluate_accuracy(tiny_dataset, sampler, model)
        assert 0.0 <= acc <= 1.0

    def test_respects_max_nodes(self, tiny_dataset, task):
        sampler, model = task
        acc = evaluate_accuracy(tiny_dataset, sampler, model, max_nodes=16)
        assert 0.0 <= acc <= 1.0

    def test_empty_nodes(self, tiny_dataset, task):
        sampler, model = task
        assert evaluate_accuracy(tiny_dataset, sampler, model, nodes=np.array([])) == 0.0

    def test_restores_training_mode(self, tiny_dataset, task):
        sampler, model = task
        model.train()
        evaluate_accuracy(tiny_dataset, sampler, model)
        assert model.training
