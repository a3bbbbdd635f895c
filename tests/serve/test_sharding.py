"""Skew-aware sharding: planners, steal protocol, assignment invariance.

The correctness battery for request->rank placement
(:func:`repro.serve.frontier.plan_shards` and friends): unit coverage of
the cost probe, the LPT bin-packer, the segment/steal-order geometry and
the shared-memory claim primitives, then the load-bearing guarantee —
predictions are **bit-identical across every shard policy** (chunk,
size_binned, steal) x models {GCN, SAGE} x samplers {neighbor,
shadow} x workers {1, 2, 4}, because each request's RNG stream is
``derive_rng(seed, "serve", node)`` and each request segment keeps its
own BLAS call — placement can only move work, never change it.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.distributed.comm import ClaimBoard
from repro.gnn.models import build_model
from repro.graph.shm import SharedGraphStore
from repro.sampling.base import make_sampler
from repro.sampling.batch import estimate_request_costs
from repro.serve.engine import InferenceEngine
from repro.serve.frontier import (
    SHARD_POLICIES,
    plan_shards,
    segment_bins,
    steal_order,
)
from repro.serve.snapshot import ModelSnapshot
from repro.shm.arena import TaskRing

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
        """The probe is a balancing signal only — it must not advance
        any RNG stream (predictions would stop being placement-pure)."""
        import repro.utils.rng as rng_mod

        nodes = request_nodes(tiny_dataset, 8)
        a = estimate_request_costs(tiny_dataset.graph, nodes, [5, 5])
        b = estimate_request_costs(tiny_dataset.graph, nodes, [5, 5])
        np.testing.assert_array_equal(a, b)
        assert rng_mod.derive_rng(0, "serve", 1).integers(1 << 30) == rng_mod.derive_rng(
            0, "serve", 1
        ).integers(1 << 30)


class TestPlanShards:
    def test_chunk_matches_array_split(self):
        bins = plan_shards(10, 3, policy="chunk")
        for got, want in zip(bins, np.array_split(np.arange(10), 3)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("policy", ["chunk", "size_binned", "steal"])
    def test_every_request_exactly_once(self, policy):
        rng = np.random.default_rng(0)
        costs = rng.exponential(size=23)
        bins = plan_shards(23, 4, policy=policy, costs=costs)
        assert len(bins) == 4
        all_ids = np.sort(np.concatenate(bins))
        np.testing.assert_array_equal(all_ids, np.arange(23))

    def test_lpt_levels_a_skewed_batch(self):
        # one huge request + many small ones: chunk puts the hub with a
        # third of the small ones; LPT isolates it
        costs = np.array([100.0] + [1.0] * 11)
        bins = plan_shards(12, 3, policy="size_binned", costs=costs)
        loads = sorted(float(costs[b].sum()) for b in bins)
        chunk_loads = sorted(
            float(costs[b].sum()) for b in plan_shards(12, 3, policy="chunk")
        )
        assert max(loads) < max(chunk_loads)
        # LPT bound: max load <= mean + max item
        assert max(loads) <= costs.sum() / 3 + costs.max()

    def test_single_rank_and_validation(self):
        (only,) = plan_shards(5, 1, policy="size_binned", costs=np.ones(5))
        np.testing.assert_array_equal(only, np.arange(5))
        with pytest.raises(ValueError, match="policy"):
            plan_shards(5, 2, policy="round_robin")
        with pytest.raises(ValueError, match="costs"):
            plan_shards(5, 2, policy="size_binned", costs=np.ones(4))

    def test_deterministic(self):
        costs = np.random.default_rng(1).exponential(size=40)
        a = plan_shards(40, 4, policy="size_binned", costs=costs)
        b = plan_shards(40, 4, policy="size_binned", costs=costs)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestSegmentsAndStealOrder:
    def test_segments_respect_bins_and_grain(self):
        costs = np.ones(20)
        bins = plan_shards(20, 3, policy="size_binned", costs=costs)
        order, seg_splits, rank_splits, weights = segment_bins(bins, costs, grain=3)
        np.testing.assert_array_equal(np.sort(order), np.arange(20))
        sizes = np.diff(seg_splits)
        assert (sizes >= 1).all() and (sizes <= 3).all()
        # segments never straddle bins: each rank's range covers its bin
        assert len(rank_splits) == 4
        for rank, b in enumerate(bins):
            lo, hi = rank_splits[rank], rank_splits[rank + 1]
            seg_rows = order[seg_splits[lo] : seg_splits[hi]]
            np.testing.assert_array_equal(np.sort(seg_rows), np.sort(b))
        np.testing.assert_allclose(
            weights, [float(costs[b].sum()) for b in bins]
        )

    def test_steal_order_covers_all_own_first(self):
        rank_splits = np.array([0, 3, 5, 9])
        weights = np.array([5.0, 9.0, 2.0])
        for rank in range(3):
            walk = steal_order(rank, rank_splits, weights)
            np.testing.assert_array_equal(np.sort(walk), np.arange(9))
            own = np.arange(rank_splits[rank], rank_splits[rank + 1])
            np.testing.assert_array_equal(walk[: len(own)], own)
        # peers visited by descending weight, their segments tail-first
        walk = steal_order(2, rank_splits, weights)
        np.testing.assert_array_equal(walk, [5, 6, 7, 8, 4, 3, 2, 1, 0])

    def test_claim_board_claims_each_task_once(self):
        board = ClaimBoard(8, ctx=mp.get_context())
        board.reset(5)
        assert all(board.try_claim(t) for t in range(5))
        assert not any(board.try_claim(t) for t in range(5))
        assert not board.try_claim(5)  # out of published range
        assert board.claimed_count() == 5
        board.reset(2)  # next batch starts clean
        assert board.claimed_count() == 0
        assert board.try_claim(1)

    def test_task_ring_roundtrip_and_fits(self):
        ring = TaskRing.create(node_capacity=64, rank_capacity=4)
        try:
            node_ids = np.arange(10, dtype=np.int64) * 7
            seg_splits = np.array([0, 4, 7, 10], dtype=np.int64)
            rank_splits = np.array([0, 2, 3], dtype=np.int64)
            weights = np.array([8.0, 3.0])
            ring.publish(node_ids, seg_splits, rank_splits, weights)
            peer = TaskRing.attach(ring.spec)
            try:
                got_nodes, got_segs, got_ranks, got_w = peer.load()
                np.testing.assert_array_equal(got_nodes, node_ids)
                np.testing.assert_array_equal(got_segs, seg_splits)
                np.testing.assert_array_equal(got_ranks, rank_splits)
                np.testing.assert_allclose(got_w, weights)
            finally:
                peer.close()
            assert ring.fits(64, 4) and not ring.fits(65, 4) and not ring.fits(8, 5)
        finally:
            ring.unlink()


class TestAssignmentInvariance:
    """The guarantee the whole design rests on: placement cannot change
    bits.  One battery per (model, sampler) pair; within it a single
    persistent pool serves workers 4 -> 2 -> 1 (park/rebind, launches
    stays 1) under every shard policy, always matching inline."""

    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_bitwise_parity_across_policies(
        self, tiny_dataset, model_name, sampler_name
    ):
        from repro.exec.pool import WorkerPool

        model = build_model(model_name, tiny_dataset.layer_dims(2), seed=3)
        sampler = make_sampler(sampler_name, **SAMPLERS[sampler_name])
        snapshot = ModelSnapshot.capture(model, sampler)
        nodes = request_nodes(tiny_dataset, 10)
        with InferenceEngine(snapshot, tiny_dataset, cache_entries=0) as solo:
            expected = solo.predict(nodes)

        pool = WorkerPool(mp.get_context(), timeout=30.0)
        shared_model = snapshot.build_model()
        store = SharedGraphStore.from_dataset(tiny_dataset)
        try:
            for workers in (4, 2, 1):
                for policy in SHARD_POLICIES:
                    with InferenceEngine(
                        snapshot, tiny_dataset, mode="pool",
                        batch_mode="frontier", shard_policy=policy,
                        workers=workers, cache_entries=0, timeout=30.0,
                        pool=pool, model=shared_model, store=store,
                    ) as eng:
                        np.testing.assert_array_equal(eng.predict(nodes), expected)
            # every swap was served by park/rebind on one forked pool —
            # steal serving included — never a relaunch
            assert pool.launches == 1
            assert pool.steal_fallbacks == 0
        finally:
            pool.shutdown()
            if not store.closed:
                store.unlink()

    def test_steal_policy_actually_exercises_the_ring(
        self, tiny_dataset, trained_snapshot
    ):
        """Sanity against silent fallback: a steal engine must record
        per-rank busy time and keep its batches on the claim path."""
        nodes = request_nodes(tiny_dataset, 12)
        with InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0) as solo:
            expected = solo.predict(nodes)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool", batch_mode="frontier",
            shard_policy="steal", workers=2, cache_entries=0, timeout=30.0,
        ) as eng:
            np.testing.assert_array_equal(eng.predict(nodes), expected)
            assert eng.pool.steal_fallbacks == 0
            assert eng.rank_stats.batches >= 1
            assert len(eng.rank_stats.busy_s) == 2
            assert sum(eng.rank_stats.busy_s) > 0.0
            assert eng.rank_stats.imbalance >= 1.0

    def test_costs_flow_into_size_binned_predictions_unchanged(
        self, tiny_dataset, trained_snapshot
    ):
        """size_binned with the real degree-based cost probe (not unit
        costs): reordering by cost must still be invisible in the bits."""
        nodes = request_nodes(tiny_dataset, 9)
        with InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0) as solo:
            expected = solo.predict(nodes)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool", batch_mode="per_node",
            shard_policy="size_binned", workers=2, cache_entries=0, timeout=30.0,
        ) as eng:
            np.testing.assert_array_equal(eng.predict(nodes), expected)

    def test_bad_shard_policy_rejected(self, tiny_dataset, trained_snapshot):
        with pytest.raises(ValueError, match="shard_policy"):
            InferenceEngine(
                trained_snapshot, tiny_dataset, shard_policy="round_robin"
            )
