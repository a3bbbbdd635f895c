"""Streaming graph deltas into a live serving deployment.

The exactness oracle of this battery: after any sequence of
``apply_delta`` calls, a live engine's predictions must be **bitwise
identical** to the per-node reference on the *materialised* merged graph
(:func:`~repro.graph.delta.materialize_dataset`) — across every model
family, sampler, request shape (one node per call, or the whole batch)
and execution mode, including the fused ``sample_merged`` path on
frontiers that touch delta edges.  On top of
that: scoped invalidation must beat a full flush on cache hit rate at
equal correctness, the persistent pool must absorb deltas without a
single re-fork (``launches`` stays flat), and the interleaved
update/read workload must account for freshness.
"""

import numpy as np
import pytest

from repro.gnn.models import build_model
from repro.graph.delta import GraphDelta, materialize_dataset
from repro.sampling import make_sampler
from repro.serve.engine import InferenceEngine
from repro.serve.snapshot import ModelSnapshot
from repro.serve.workload import make_update_stream, run_serving_workload
from repro.utils.rng import derive_rng
from tests.serve.test_frontier_parity import REQUEST_SHAPES, predict_as, reference


def edge_delta(num_nodes, k=12, seed=0):
    rng = derive_rng(seed, "streaming-test-delta")
    return GraphDelta(
        src=rng.integers(0, num_nodes, size=k).astype(np.int64),
        dst=rng.integers(0, num_nodes, size=k).astype(np.int64),
    )


def node_delta(dataset, seed=0):
    """A delta appending one node wired into the existing graph."""
    rng = derive_rng(seed, "streaming-test-node")
    n = dataset.num_nodes
    src = rng.integers(0, n, size=4).astype(np.int64)
    dst = np.full(4, n, dtype=np.int64)
    feats = rng.standard_normal((1, dataset.features.shape[1])).astype(
        dataset.features.dtype
    )
    return GraphDelta(
        src=src, dst=dst, features=feats, labels=np.zeros(1, dtype=dataset.labels.dtype)
    )


def make_snapshot(dataset, model_name, sampler_name, seed=0):
    """Snapshot any model x sampler combination (TASKS only covers two)."""
    dims = dataset.layer_dims(2)
    model = build_model(model_name, dims, seed=seed)
    if sampler_name == "neighbor":
        sampler = make_sampler("neighbor", fanouts=[4, 4])
    else:
        sampler = make_sampler("shadow", fanouts=(4, 4), num_layers=2)
    return ModelSnapshot.capture(model, sampler, dataset_name=dataset.name)


def delta_touching_nodes(dataset, fragments, width=6):
    """Query nodes whose receptive field includes delta edges, plus the
    appended nodes themselves — the frontiers that exercise the merged
    adjacency in the fused ``sample_merged`` kernels."""
    rows = np.unique(np.concatenate([f.rows for f in fragments]))
    fresh = np.arange(dataset.num_nodes, fragments[-1].num_nodes_after, dtype=np.int64)
    return np.unique(np.concatenate([rows[:width], fresh])).astype(np.int64)


def oracle_check(live, nodes, shape="frontier"):
    """Live predictions == per-node reference on the materialised merged graph."""
    merged = materialize_dataset(live.dataset, live._fragments)
    np.testing.assert_array_equal(
        predict_as(live, nodes, shape), reference(live.snapshot, merged, nodes)
    )


MODELS = ["gcn", "sage"]
SAMPLERS = ["neighbor", "shadow"]


class TestExactnessOracleInline:
    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("sampler_name", SAMPLERS)
    @pytest.mark.parametrize("shape", REQUEST_SHAPES)
    def test_post_delta_bitwise_parity(
        self, tiny_dataset, model_name, sampler_name, shape
    ):
        snap = make_snapshot(tiny_dataset, model_name, sampler_name)
        with InferenceEngine(snap, tiny_dataset, mode="inline", cache_entries=0) as live:
            live.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=1))
            live.apply_delta(node_delta(tiny_dataset, seed=2))
            nodes = delta_touching_nodes(tiny_dataset, live._fragments)
            oracle_check(live, nodes, shape)

    def test_inline_matches_across_batch_modes(self, tiny_dataset):
        """One micro-batch of k == k micro-batches of 1, on a layered graph."""
        snap = make_snapshot(tiny_dataset, "sage", "neighbor")
        preds = []
        for shape in REQUEST_SHAPES:
            with InferenceEngine(snap, tiny_dataset, mode="inline", cache_entries=0) as eng:
                eng.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=3))
                nodes = delta_touching_nodes(tiny_dataset, eng._fragments)
                preds.append(predict_as(eng, nodes, shape))
        np.testing.assert_array_equal(preds[0], preds[1])


@pytest.mark.parametrize("model_name,sampler_name", [
    ("sage", "neighbor"),
    ("gcn", "shadow"),
])
@pytest.mark.parametrize("shape", REQUEST_SHAPES)
def test_exactness_oracle_pool(tiny_dataset, model_name, sampler_name, shape):
    """Pool engines see deltas through the shared store + GraphDeltaPlan
    broadcast and stay bit-identical to the cold merged-graph oracle —
    without a single worker re-fork."""
    snap = make_snapshot(tiny_dataset, model_name, sampler_name)
    with InferenceEngine(
        snap, tiny_dataset, mode="pool", workers=2, cache_entries=0, timeout=60.0,
    ) as live:
        live.warm_up()
        launches_before = live.pool.launches
        live.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=4))
        live.apply_delta(node_delta(tiny_dataset, seed=5))
        nodes = delta_touching_nodes(tiny_dataset, live._fragments)
        oracle_check(live, nodes, shape)
        assert live.pool.launches == launches_before  # no re-fork


class TestDeltaBeforePoolLaunch:
    def test_fresh_pool_ships_existing_deltas(self, tiny_dataset):
        """Deltas applied while inline must reach a pool launched later."""
        snap = make_snapshot(tiny_dataset, "sage", "neighbor")
        with InferenceEngine(
            snap, tiny_dataset, mode="pool", workers=2,
            cache_entries=0, timeout=60.0,
        ) as live:
            # apply before warm_up: the store/pool do not exist yet
            live.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=6))
            nodes = delta_touching_nodes(tiny_dataset, live._fragments)
            oracle_check(live, nodes)
            # the launched workers mapped fragment 0 from the store spec;
            # later announcements carry only the newest fragment
            launches = live.pool.launches
            live.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=11))
            live.apply_delta(node_delta(tiny_dataset, seed=12))
            nodes = delta_touching_nodes(tiny_dataset, live._fragments)
            oracle_check(live, nodes)
            assert live.pool.launches == launches


class TestScopedInvalidation:
    def _warm_and_update(self, tiny_dataset, delta_invalidation):
        snap = make_snapshot(tiny_dataset, "sage", "neighbor")
        eng = InferenceEngine(
            snap, tiny_dataset, mode="inline",
            cache_entries=4096, delta_invalidation=delta_invalidation,
        )
        catalog = np.arange(0, tiny_dataset.num_nodes, 4, dtype=np.int64)
        eng.predict(catalog)  # warm every catalog entry
        receipt = eng.apply_delta(edge_delta(tiny_dataset.num_nodes, k=6, seed=7))
        before = eng.cache.stats.hits
        preds = eng.predict(catalog)
        hits = eng.cache.stats.hits - before
        return eng, receipt, preds, hits / len(catalog)

    def test_scoped_beats_flush_at_equal_correctness(self, tiny_dataset):
        scoped_eng, receipt, scoped_preds, scoped_rate = self._warm_and_update(
            tiny_dataset, "scoped"
        )
        flush_eng, _, flush_preds, flush_rate = self._warm_and_update(
            tiny_dataset, "flush"
        )
        try:
            # identical answers...
            np.testing.assert_array_equal(scoped_preds, flush_preds)
            # ...but scoped kept every entry outside the reverse-reachable
            # set, so its post-delta hit rate must be strictly better
            assert flush_rate == 0.0
            assert scoped_rate > 0.0
            # and the receipt only names reachable nodes
            assert receipt.affected < scoped_eng.dataset.num_nodes
            assert receipt.invalidated <= receipt.affected
        finally:
            scoped_eng.close()
            flush_eng.close()

    def test_affected_entries_do_refresh(self, tiny_dataset):
        """Scoped is not *too* lazy: nodes in the reachable set recompute."""
        eng, receipt, _, _ = self._warm_and_update(tiny_dataset, "scoped")
        try:
            nodes = delta_touching_nodes(tiny_dataset, eng._fragments)
            oracle_check(eng, nodes)
        finally:
            eng.close()


class TestStalenessBudget:
    def test_budget_serves_stale_and_counts_it(self, tiny_dataset):
        snap = make_snapshot(tiny_dataset, "sage", "neighbor")
        with InferenceEngine(
            snap, tiny_dataset, mode="inline", cache_entries=4096,
            staleness_budget=1,
        ) as eng:
            nodes = np.arange(16, dtype=np.int64)
            eng.predict(nodes)
            receipt = eng.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=8))
            # budget 1: the first affecting delta drops nothing
            assert receipt.invalidated == 0
            stale_before = eng.cache.stats.stale_hits
            eng.predict(nodes)
            assert eng.cache.stats.stale_hits > stale_before
            # a second affecting delta exhausts the budget
            receipt2 = eng.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=9))
            assert receipt2.invalidated > 0

    def test_budget_zero_is_exact(self, tiny_dataset):
        snap = make_snapshot(tiny_dataset, "sage", "neighbor")
        with InferenceEngine(
            snap, tiny_dataset, mode="inline", cache_entries=4096,
        ) as eng:
            nodes = np.arange(16, dtype=np.int64)
            eng.predict(nodes)
            eng.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=8))
            oracle_check(eng, nodes)


class TestReloadTagBump:
    def test_swap_results_identical_to_full_clear(
        self, tiny_dataset, trained_snapshot
    ):
        """The O(1) weight-tag bump serves exactly what a full clear would."""
        nodes = tiny_dataset.val_idx[:12]
        with InferenceEngine(
            trained_snapshot, tiny_dataset, cache_entries=4096
        ) as bumped, InferenceEngine(
            trained_snapshot, tiny_dataset, cache_entries=4096
        ) as cleared:
            bumped.predict(nodes)
            cleared.predict(nodes)
            bumped.reload(trained_snapshot)  # tag bump (entries resident)
            cleared.reload(trained_snapshot)
            cleared.cache.clear()  # the old eager behaviour on top
            assert len(bumped.cache) > 0
            assert len(cleared.cache) == 0
            np.testing.assert_array_equal(
                bumped.predict(nodes), cleared.predict(nodes)
            )

    def test_tag_bump_composes_with_deltas(self, tiny_dataset, trained_snapshot):
        with InferenceEngine(
            trained_snapshot, tiny_dataset, cache_entries=4096
        ) as eng:
            nodes = tiny_dataset.val_idx[:8]
            eng.predict(nodes)
            eng.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=10))
            eng.reload(trained_snapshot)
            oracle_check(eng, np.asarray(nodes, dtype=np.int64))


class TestStreamingWorkload:
    def test_interleaved_updates_and_reads(self, tiny_dataset, trained_snapshot):
        with InferenceEngine(
            trained_snapshot, tiny_dataset, cache_entries=1024, staleness_budget=1
        ) as eng:
            updates = make_update_stream(
                tiny_dataset.num_nodes, num_updates=4, rate_ups=200.0,
                edges_per_update=4, rng=derive_rng(0, "streaming-workload"),
            )
            report = run_serving_workload(
                eng, num_requests=64, rate_rps=400.0, seed=0, updates=updates
            )
            assert report.updates_applied == 4
            assert report.graph_generation == 4
            assert report.update_ms > 0.0
            assert 0.0 <= report.freshness <= 1.0
            doc = report.as_dict(slo_ms=100.0)
            assert doc["freshness"]["updates_applied"] == 4
            assert doc["slo"]["target_ms"] == 100.0
            # post-workload the engine still satisfies the oracle
            nodes = delta_touching_nodes(tiny_dataset, eng._fragments)
            oracle_check(eng, nodes)

    def test_update_stream_is_deterministic(self, tiny_dataset):
        a = make_update_stream(
            128, num_updates=3, rate_ups=50.0, new_node_every=2, feature_dim=4,
            rng=derive_rng(1, "stream-det"),
        )
        b = make_update_stream(
            128, num_updates=3, rate_ups=50.0, new_node_every=2, feature_dim=4,
            rng=derive_rng(1, "stream-det"),
        )
        assert [t for t, _ in a] == [t for t, _ in b]
        for (_, da), (_, db) in zip(a, b):
            np.testing.assert_array_equal(da.src, db.src)
            np.testing.assert_array_equal(da.dst, db.dst)
        # the second update appends node 128; later draws may cite it
        assert a[1][1].num_new_nodes == 1
        assert a[1][1].dst[0] == 128
