"""Pipeline semantics preservation: prefetch on/off is bit-identical.

The contract the whole subsystem rests on (and the reason the tuner may
freely search the ``s``/``queue_depth`` axes): for every execution
backend, enabling the sampling/compute overlap pipeline changes wall
clock only — the loss trajectory is *exactly* the synchronous one for
all worker counts and queue depths.
"""

import pytest

from repro.core.engine import MultiProcessEngine
from repro.gnn.models import make_task

BACKENDS = ("inline", "process")


def train_losses(ds, *, backend, prefetch, workers=1, depth=2, epochs=2):
    sampler, model = make_task("neighbor-sage", ds.layer_dims(2), seed=7, fanouts=[5, 5])
    engine = MultiProcessEngine(
        ds,
        sampler,
        model,
        num_processes=2,
        global_batch_size=64,
        backend=backend,
        seed=0,
        prefetch=prefetch,
        queue_depth=depth,
        sampler_workers=workers,
    )
    try:
        return engine.train(epochs).losses
    finally:
        engine.shutdown()


@pytest.fixture(scope="module")
def reference_losses(tiny_dataset):
    """The synchronous inline trajectory every variant must reproduce."""
    return train_losses(tiny_dataset, backend="inline", prefetch=False)


class TestPrefetchDeterminism:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_prefetch_trajectory_bit_identical(
        self, tiny_dataset, reference_losses, backend, workers, depth
    ):
        losses = train_losses(
            tiny_dataset, backend=backend, prefetch=True, workers=workers, depth=depth
        )
        assert losses == reference_losses

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_prefetch_off_matches_reference(
        self, tiny_dataset, reference_losses, backend
    ):
        assert train_losses(tiny_dataset, backend=backend, prefetch=False) == (
            reference_losses
        )

    def test_stage_timings_recorded(self, tiny_dataset):
        sampler, model = make_task(
            "neighbor-sage", tiny_dataset.layer_dims(2), seed=7, fanouts=[5, 5]
        )
        engine = MultiProcessEngine(
            tiny_dataset,
            sampler,
            model,
            num_processes=2,
            global_batch_size=64,
            backend="inline",
            seed=0,
            prefetch=True,
            sampler_workers=2,
        )
        stats = engine.train_epoch()
        assert stats.sample_wait >= 0.0
        assert stats.compute_time > 0.0
        assert stats.sample_wait + stats.compute_time <= stats.epoch_time * 1.5
