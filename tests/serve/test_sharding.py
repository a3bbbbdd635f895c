"""Pool placement: one index-chunk split, bit-identical at any worker count.

:meth:`repro.exec.pool.WorkerPool.run_infer` splits each micro-batch by
request index into one contiguous chunk per active rank
(``np.array_split``).  The load-bearing guarantee is that placement can
only move work, never change it: each request's RNG stream is
``derive_rng(seed, "serve", node)`` and each request segment keeps its
own BLAS call, so pool predictions equal the per-node reference bit for
bit across models {GCN, SAGE} x samplers {neighbor, shadow} x workers
{1..4} (one engine with its own pool per count) x both request shapes
(one node per call, or the whole batch) — empty chunks (fewer requests
than ranks) included.  The
RNG-free per-request cost probe the benchmark ledger times is covered
here too.
"""

import numpy as np
import pytest

from repro.gnn.models import build_model
from repro.sampling import make_sampler
from repro.sampling.batch import estimate_request_costs
from repro.serve.engine import InferenceEngine
from repro.serve.snapshot import ModelSnapshot
from tests.serve.test_frontier_parity import REQUEST_SHAPES, predict_as, reference

MODELS = ("gcn", "sage")
SAMPLERS = {
    "neighbor": {"fanouts": [5, 5]},
    "shadow": {"fanouts": (4, 3), "num_layers": 2},
}


def request_nodes(dataset, n):
    nodes = dataset.val_idx
    if len(nodes) < n:
        nodes = np.arange(dataset.num_nodes, dtype=np.int64)
    return nodes[:n]


class TestCostProbe:
    def test_hop1_counts_are_exact(self, tiny_dataset):
        """Without-replacement sampling keeps exactly min(deg, fanout)
        neighbours — the hop-1 term is a count, not an estimate."""
        nodes = request_nodes(tiny_dataset, 16)
        deg = tiny_dataset.graph.in_degree(nodes)
        costs = estimate_request_costs(tiny_dataset.graph, nodes, [5, 5])
        hop1 = np.minimum(deg, 5)
        np.testing.assert_array_equal(costs, 1.0 + hop1 * (1.0 + 5.0))

    def test_no_fanouts_falls_back_to_degree(self, tiny_dataset):
        nodes = request_nodes(tiny_dataset, 8)
        costs = estimate_request_costs(tiny_dataset.graph, nodes)
        np.testing.assert_array_equal(
            costs, 1.0 + tiny_dataset.graph.in_degree(nodes)
        )

    def test_empty_and_floor(self, tiny_dataset):
        assert estimate_request_costs(
            tiny_dataset.graph, np.array([], dtype=np.int64)
        ).shape == (0,)
        costs = estimate_request_costs(
            tiny_dataset.graph, request_nodes(tiny_dataset, 8), [5, 5]
        )
        assert (costs >= 1.0).all()  # even isolated nodes cost a forward

    def test_never_touches_rng(self, tiny_dataset):
        """The probe must not advance any RNG stream (predictions are
        pure functions of ``(weights, seed, node)``)."""
        import repro.utils.rng as rng_mod

        nodes = request_nodes(tiny_dataset, 8)
        a = estimate_request_costs(tiny_dataset.graph, nodes, [5, 5])
        b = estimate_request_costs(tiny_dataset.graph, nodes, [5, 5])
        np.testing.assert_array_equal(a, b)
        assert rng_mod.derive_rng(0, "serve", 1).integers(1 << 30) == rng_mod.derive_rng(
            0, "serve", 1
        ).integers(1 << 30)



class TestAssignmentInvariance:
    """The guarantee the whole design rests on: placement cannot change
    bits.  One battery per (model, sampler) pair; within it one engine
    with its own pool per worker count (4, 3, 2, 1) serves both request
    shapes, always matching the per-node reference."""

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_bitwise_parity_across_policies(
        self, tiny_dataset, model_name, sampler_name
    ):
        model = build_model(model_name, tiny_dataset.layer_dims(2), seed=3)
        sampler = make_sampler(sampler_name, **SAMPLERS[sampler_name])
        snapshot = ModelSnapshot.capture(model, sampler)
        nodes = request_nodes(tiny_dataset, 10)
        expected = reference(snapshot, tiny_dataset, nodes)

        for workers in (4, 3, 2, 1):
            with InferenceEngine(
                snapshot, tiny_dataset, mode="pool", workers=workers,
                cache_entries=0, timeout=30.0,
            ) as eng:
                for shape in REQUEST_SHAPES:
                    np.testing.assert_array_equal(
                        predict_as(eng, nodes, shape), expected
                    )

    @pytest.mark.parametrize("shape", REQUEST_SHAPES)
    def test_fewer_requests_than_ranks(self, tiny_dataset, trained_snapshot, shape):
        """3 requests on 4 ranks (or 1 request at a time): the idle ranks
        get empty chunks and must return zero rows without disturbing
        the others' placement."""
        nodes = request_nodes(tiny_dataset, 3)
        expected = reference(trained_snapshot, tiny_dataset, nodes)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool",
            workers=4, cache_entries=0, timeout=30.0,
        ) as eng:
            got = predict_as(eng, nodes, shape)
        assert np.array_equal(got, expected)

    def test_rank_stats_record_busy_time(self, tiny_dataset, trained_snapshot):
        """Every pool batch books per-rank busy time and an imbalance."""
        nodes = request_nodes(tiny_dataset, 12)
        expected = reference(trained_snapshot, tiny_dataset, nodes)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool",
            workers=2, cache_entries=0, timeout=30.0,
        ) as eng:
            np.testing.assert_array_equal(eng.predict(nodes), expected)
            assert eng.rank_stats.batches >= 1
            assert len(eng.rank_stats.busy_s) == 2
            assert sum(eng.rank_stats.busy_s) > 0.0
            assert eng.rank_stats.imbalance >= 1.0

    def test_bad_shard_policy_rejected(self, tiny_dataset, trained_snapshot):
        # "chunk", the one placement, is still accepted by name
        InferenceEngine(trained_snapshot, tiny_dataset, shard_policy="chunk").close()
        for policy in ("round_robin", "size_binned", "steal"):
            with pytest.raises(ValueError, match="shard_policy .* retired"):
                InferenceEngine(trained_snapshot, tiny_dataset, shard_policy=policy)
