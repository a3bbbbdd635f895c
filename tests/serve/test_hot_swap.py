"""Hot snapshot swap: live engines reload weights without relaunching.

``InferenceEngine.reload(snapshot)`` must (1) serve the new weights
bit-identically to a fresh engine built from that snapshot, (2) keep the
persistent pool's workers alive — weights travel the ParamStore channel,
``pool.launches`` never increments — and (3) invalidate the prediction
cache (cached rows belong to the old weights).
"""

import numpy as np
import pytest

from repro.core.engine import MultiProcessEngine
from repro.gnn.models import make_task
from repro.serve.engine import InferenceEngine
from repro.serve.snapshot import ModelSnapshot
from tests.serve.test_frontier_parity import REQUEST_SHAPES, predict_as, reference


@pytest.fixture(scope="module")
def snapshot_generations(tiny_dataset):
    """Snapshots of the same model at three training generations."""
    sampler, model = make_task(
        "neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5]
    )
    engine = MultiProcessEngine(
        tiny_dataset, sampler, model, num_processes=1, global_batch_size=128,
        backend="inline", seed=0,
    )
    snaps = [ModelSnapshot.from_engine(engine)]
    for _ in range(2):
        engine.train(1)
        snaps.append(ModelSnapshot.from_engine(engine))
    return snaps


class TestInlineReload:
    def test_reload_matches_fresh_engine_each_generation(
        self, tiny_dataset, snapshot_generations
    ):
        nodes = tiny_dataset.val_idx[:8]
        eng = InferenceEngine(snapshot_generations[0], tiny_dataset, cache_entries=64)
        try:
            for gen, snap in enumerate(snapshot_generations):
                if gen > 0:
                    eng.reload(snap)
                    assert eng.generation == gen
                np.testing.assert_array_equal(
                    eng.predict(nodes), reference(snap, tiny_dataset, nodes)
                )
        finally:
            eng.close()

    def test_reload_invalidates_cache(self, tiny_dataset, snapshot_generations):
        old, new = snapshot_generations[0], snapshot_generations[-1]
        nodes = tiny_dataset.val_idx[:4]
        eng = InferenceEngine(old, tiny_dataset, cache_entries=64)
        try:
            stale = eng.predict(nodes)
            assert len(eng.cache) == len(nodes)
            eng.reload(new)
            # the swap is O(1): old-weight rows stay resident but carry a
            # dead weight tag, so none is servable and lookups drop them
            assert all(int(n) not in eng.cache for n in nodes)
            got = eng.predict(nodes)
            assert not np.array_equal(got, stale)  # training moved the weights
            np.testing.assert_array_equal(
                got, reference(new, tiny_dataset, nodes)
            )
        finally:
            eng.close()

    def test_reload_works_for_frontier_batching(
        self, tiny_dataset, snapshot_generations
    ):
        new = snapshot_generations[-1]
        nodes = tiny_dataset.val_idx[:8]
        eng = InferenceEngine(snapshot_generations[0], tiny_dataset, cache_entries=0)
        try:
            eng.predict(nodes)
            eng.reload(new)
            np.testing.assert_array_equal(
                eng.predict(nodes), reference(new, tiny_dataset, nodes)
            )
        finally:
            eng.close()

    def test_incompatible_snapshot_rejected(self, tiny_dataset, snapshot_generations):
        sampler, other = make_task(
            "neighbor-sage", tiny_dataset.layer_dims(3), seed=0, fanouts=[5, 5, 5]
        )
        wrong = ModelSnapshot.capture(other, sampler)
        eng = InferenceEngine(snapshot_generations[0], tiny_dataset)
        try:
            before = eng.model.state_dict()
            with pytest.raises(ValueError, match="incompatible snapshot"):
                eng.reload(wrong)
            # the served weights are untouched by the failed swap
            after = eng.model.state_dict()
            for k in before:
                np.testing.assert_array_equal(before[k], after[k])
            assert eng.generation == 0
        finally:
            eng.close()

    def test_closed_engine_rejects_reload(self, tiny_dataset, snapshot_generations):
        eng = InferenceEngine(snapshot_generations[0], tiny_dataset)
        eng.close()
        with pytest.raises(ValueError, match="closed"):
            eng.reload(snapshot_generations[-1])


class TestPoolReload:
    @pytest.mark.parametrize("shape", REQUEST_SHAPES)
    def test_swaps_keep_launches_flat(
        self, tiny_dataset, snapshot_generations, shape
    ):
        """Reload N snapshots into a live pool: every generation serves
        the right weights and nobody is ever re-forked."""
        nodes = tiny_dataset.val_idx[:6]
        with InferenceEngine(
            snapshot_generations[0], tiny_dataset, mode="pool", workers=2,
            cache_entries=0, timeout=30.0,
        ) as eng:
            eng.warm_up()
            pids = eng.pool.worker_pids()
            for gen, snap in enumerate(snapshot_generations):
                if gen > 0:
                    eng.reload(snap)
                np.testing.assert_array_equal(
                    predict_as(eng, nodes, shape), reference(snap, tiny_dataset, nodes)
                )
                assert eng.pool.launches == 1, "hot swap must not relaunch"
                assert eng.pool.worker_pids() == pids

    def test_reload_before_first_batch_launches_once(
        self, tiny_dataset, snapshot_generations
    ):
        """A swap on a cold engine rides the launch itself: the fork
        pickles the reloaded weights, no publish round needed."""
        new = snapshot_generations[-1]
        nodes = tiny_dataset.val_idx[:4]
        with InferenceEngine(
            snapshot_generations[0], tiny_dataset, mode="pool", workers=2,
            cache_entries=0, timeout=30.0,
        ) as eng:
            eng.reload(new)  # pool not launched yet
            np.testing.assert_array_equal(
                eng.predict(nodes), reference(new, tiny_dataset, nodes)
            )
            assert eng.pool.launches == 1
