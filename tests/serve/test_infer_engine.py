"""InferenceEngine: determinism, inline/pool parity, cache interaction."""

import os

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, inference_mode
from repro.serve.engine import InferenceEngine, predict_nodes
from tests.serve.test_frontier_parity import keyed_training_loss, reference

has_dev_shm = os.path.isdir("/dev/shm")
needs_dev_shm = pytest.mark.skipif(not has_dev_shm, reason="no /dev/shm to inspect")


def shm_segments() -> frozenset:
    return frozenset(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))


def pid_reaped(pid: int) -> bool:
    """True once ``pid`` is gone from the process table (zombies count as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


class TestPredictNodes:
    def test_inference_mode_matches_training_mode_forward(self, tiny_dataset, trained_snapshot):
        """The no-grad fast path must be bit-identical to the tape-building
        forward the training engine runs (same weights, eval dropout)."""
        model = trained_snapshot.build_model()
        sampler = trained_snapshot.build_sampler()
        nodes = tiny_dataset.val_idx[:8]
        features = Tensor(tiny_dataset.features)
        served = predict_nodes(
            model, tiny_dataset.graph, features, sampler, nodes, seed=0
        )
        # reference: grad-enabled forward, identical sampling streams
        from repro.autograd.ops import gather_rows
        from repro.utils.rng import derive_rng

        model.eval()
        for i, node in enumerate(nodes):
            batch = sampler.sample(
                tiny_dataset.graph,
                np.asarray([node], dtype=np.int64),
                rng=derive_rng(0, "serve", int(node)),
            )
            out = model(batch.blocks, gather_rows(features, batch.input_ids))
            assert out.requires_grad or out._parents  # the tape exists here
            np.testing.assert_array_equal(served[i], out.data[0])
        model.train()

    def test_training_flag_and_dropout_counter_untouched(self, tiny_dataset, trained_snapshot):
        model = trained_snapshot.build_model()
        sampler = trained_snapshot.build_sampler()
        assert model.training
        before = keyed_training_loss(model, sampler, tiny_dataset)
        predict_nodes(
            model, tiny_dataset.graph, Tensor(tiny_dataset.features), sampler,
            tiny_dataset.val_idx[:4], seed=0,
        )
        assert model.training  # restored
        assert keyed_training_loss(model, sampler, tiny_dataset) == before

    def test_empty_request_shape(self, tiny_dataset, trained_snapshot):
        """Empty input matches the model's output width (regression:
        this used to collapse to ``(0, 0)``)."""
        model = trained_snapshot.build_model()
        sampler = trained_snapshot.build_sampler()
        out = predict_nodes(
            model, tiny_dataset.graph, Tensor(tiny_dataset.features), sampler,
            np.array([], dtype=np.int64), seed=0,
        )
        assert out.shape == (0, trained_snapshot.out_dim)
        assert out.dtype == np.float32


class TestInlineEngine:
    def test_batch_composition_independent(self, tiny_dataset, trained_snapshot):
        """Prediction of a node must not depend on which batch carried it —
        the property that makes caching exact and pool sharding free."""
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0)
        nodes = tiny_dataset.val_idx[:12]
        together = eng.predict(nodes)
        singles = np.stack([eng.predict([n])[0] for n in nodes])
        np.testing.assert_array_equal(together, singles)
        np.testing.assert_array_equal(
            together, reference(trained_snapshot, tiny_dataset, nodes)
        )

    def test_predict_deterministic_across_engines(self, tiny_dataset, trained_snapshot):
        a = InferenceEngine(trained_snapshot, tiny_dataset).predict(tiny_dataset.val_idx[:5])
        b = InferenceEngine(trained_snapshot, tiny_dataset).predict(tiny_dataset.val_idx[:5])
        np.testing.assert_array_equal(a, b)

    def test_cache_serves_repeats_and_rows_match(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=64)
        nodes = tiny_dataset.val_idx[:6]
        first = eng.predict(nodes)
        assert eng.cache.stats.misses == 6 and eng.cache.stats.hits == 0
        second = eng.predict(nodes)
        assert eng.cache.stats.hits == 6
        np.testing.assert_array_equal(first, second)

    def test_duplicates_in_one_batch_computed_once(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=64)
        node = int(tiny_dataset.val_idx[0])
        out = eng.predict([node, node, node])
        assert out.shape[0] == 3
        np.testing.assert_array_equal(out[0], out[1])
        # one lookup miss, one computation, no self-hits within the batch
        assert eng.cache.stats.lookups == 1

    def test_row_ordering_preserved(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=64)
        nodes = tiny_dataset.val_idx[:6]
        fwd = eng.predict(nodes)
        rev = eng.predict(nodes[::-1])
        np.testing.assert_array_equal(fwd[::-1], rev)

    def test_closed_engine_rejects_predict(self, tiny_dataset, trained_snapshot):
        eng = InferenceEngine(trained_snapshot, tiny_dataset)
        eng.close()
        with pytest.raises(ValueError, match="closed"):
            eng.predict([0])


class TestPoolEngine:
    def test_pool_matches_inline_bit_identical(self, tiny_dataset, trained_snapshot):
        nodes = tiny_dataset.val_idx[:10]
        expected = reference(trained_snapshot, tiny_dataset, nodes)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool", workers=2,
            cache_entries=0, timeout=30.0,
        ) as pooled:
            got = pooled.predict(nodes)
            np.testing.assert_array_equal(got, expected)
            # results rode the shared-memory arena, not the queue
            assert pooled.transport.arena_hits > 0
            assert pooled.transport.pickle_fallbacks == 0

    def test_pool_single_worker_matches_inline(self, tiny_dataset, trained_snapshot):
        nodes = tiny_dataset.val_idx[:6]
        expected = reference(trained_snapshot, tiny_dataset, nodes)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool", workers=1,
            cache_entries=0, timeout=30.0,
        ) as pooled:
            np.testing.assert_array_equal(pooled.predict(nodes), expected)

    def test_oversized_rows_fall_back_to_pickling(self, tiny_dataset, trained_snapshot):
        nodes = tiny_dataset.val_idx[:8]
        expected = reference(trained_snapshot, tiny_dataset, nodes)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool", workers=2,
            cache_entries=0, timeout=30.0, arena_slot_bytes=16,
        ) as pooled:
            got = pooled.predict(nodes)
            np.testing.assert_array_equal(got, expected)
            assert pooled.transport.pickle_fallbacks > 0
            assert pooled.transport.arena_hits == 0

    def test_pool_reused_across_batches(self, tiny_dataset, trained_snapshot):
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool", workers=2,
            cache_entries=0, timeout=30.0,
        ) as eng:
            eng.predict(tiny_dataset.val_idx[:4])
            pids = eng.pool.worker_pids()
            eng.predict(tiny_dataset.val_idx[4:8])
            assert eng.pool.worker_pids() == pids
            assert eng.pool.launches == 1

    @needs_dev_shm
    def test_close_releases_segments(self, tiny_dataset, trained_snapshot):
        before = shm_segments()
        eng = InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool", workers=2,
            cache_entries=0, timeout=30.0,
        )
        eng.predict(tiny_dataset.val_idx[:4])
        pids = eng.pool.worker_pids()
        assert len(pids) == 2
        assert shm_segments() != before
        eng.close()
        assert shm_segments() == before
        # the engine owns its pool: close() joins every worker, leaving
        # no zombie behind either
        assert not [pid for pid in pids if not pid_reaped(pid)]

    def test_bad_mode_rejected(self, tiny_dataset, trained_snapshot):
        with pytest.raises(ValueError, match="mode"):
            InferenceEngine(trained_snapshot, tiny_dataset, mode="remote")
