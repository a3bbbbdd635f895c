"""The serving forward must be bit-identical to per-node forwards.

The serving correctness battery for :func:`repro.serve.frontier.predict_frontier`
against the per-node reference :func:`repro.serve.engine.predict_nodes`:
a property-style sweep over models {GCN, SAGE} x samplers {neighbor,
shadow} x batch sizes {1, 7, 64} asserting predictions equal per-node
forwards *bitwise*, the one-request path (one node per micro-batch: on a
layered graph after a delta, for a zero in-degree seed, through a pool
whose other rank gets an empty chunk), duplicate/overlapping request
nodes, engine-level parity in inline and pool modes, and structural
validation of the merged layout itself.

The other serving batteries import :data:`REQUEST_SHAPES`,
:func:`predict_as` and :func:`reference` from here, so every engine-level
check drives both dispatch sides of the one forward and compares them
with the per-node reference.
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.exec.base import compute_loss
from repro.gnn.models import build_model
from repro.graph.delta import DeltaFragment, GraphDelta, LayeredCSR
from repro.obs.metrics import MetricRegistry
from repro.obs.trace import NULL_RECORDER, SpanRecorder
from repro.sampling import make_sampler
from repro.serve.engine import InferenceEngine, predict_nodes
from repro.serve.frontier import merge_frontiers, predict_frontier, validate_merged
from repro.utils.rng import derive_rng

MODELS = ("gcn", "sage")
SAMPLERS = {
    "neighbor": {"fanouts": [5, 5]},
    "shadow": {"fanouts": (4, 3), "num_layers": 2},
}
BATCH_SIZES = (1, 7, 64)

#: how a test feeds requests to the serving forward: one node per
#: ``predict`` call (every forward takes the one-request path) or the
#: whole request list in one call (the merged frontier path)
REQUEST_SHAPES = ("per_node", "frontier")


def predict_as(engine, nodes, shape):
    """``engine.predict(nodes)``, fed whole or one node per call."""
    if shape == "per_node":
        return np.concatenate([engine.predict([int(n)]) for n in nodes])
    return engine.predict(nodes)


def reference(snapshot, dataset, nodes):
    """The per-node oracle: each node's prediction when served alone."""
    return predict_nodes(
        snapshot.build_model(), dataset.graph, Tensor(dataset.features),
        snapshot.build_sampler(), nodes, seed=snapshot.seed,
    )


def make_pair(name, sampler_name, dataset, seed=3):
    model = build_model(name, dataset.layer_dims(2), seed=seed)
    sampler = make_sampler(sampler_name, **SAMPLERS[sampler_name])
    return model, sampler


def keyed_training_loss(model, sampler, dataset) -> bytes:
    """The bits of one training-mode loss at a fixed rank-step key."""
    batch = sampler.sample(
        dataset.graph, dataset.train_idx[:16], rng=derive_rng(0, "sample", 0, 0, 0)
    )
    loss, _ = compute_loss(batch, Tensor(dataset.features), dataset.labels, model, (0, 0, 0, 0))
    return loss.data.tobytes()


def request_nodes(dataset, n):
    nodes = dataset.val_idx
    if len(nodes) < n:
        nodes = np.arange(dataset.num_nodes, dtype=np.int64)
    return nodes[:n]


class TestFunctionParity:
    @pytest.mark.parametrize("model_name", MODELS)
    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_bit_identical_to_per_node(
        self, tiny_dataset, model_name, sampler_name, batch_size
    ):
        model, sampler = make_pair(model_name, sampler_name, tiny_dataset)
        nodes = request_nodes(tiny_dataset, batch_size)
        features = Tensor(tiny_dataset.features)
        solo = predict_nodes(model, tiny_dataset.graph, features, sampler, nodes, seed=0)
        merged = predict_frontier(
            model, tiny_dataset.graph, features, sampler, nodes, seed=0
        )
        np.testing.assert_array_equal(merged, solo)

    @pytest.mark.parametrize("model_name", MODELS)
    def test_random_request_subsets(self, tiny_dataset, model_name):
        """Property-style: arbitrary request subsets in arbitrary order
        never change a node's prediction."""
        model, sampler = make_pair(model_name, "neighbor", tiny_dataset)
        features = Tensor(tiny_dataset.features)
        catalog = request_nodes(tiny_dataset, 64)
        solo = predict_nodes(model, tiny_dataset.graph, features, sampler, catalog, seed=0)
        by_node = {int(n): solo[i] for i, n in enumerate(catalog)}
        rng = np.random.default_rng(7)
        for _ in range(5):
            subset = rng.permutation(catalog)[: int(rng.integers(1, len(catalog) + 1))]
            merged = predict_frontier(
                model, tiny_dataset.graph, features, sampler, subset, seed=0
            )
            for i, n in enumerate(subset):
                np.testing.assert_array_equal(merged[i], by_node[int(n)])

    def test_empty_request(self, tiny_dataset):
        """Empty input keeps the model's output width so results always
        stack/concatenate (regression: this used to be ``(0, 0)``)."""
        model, sampler = make_pair("sage", "neighbor", tiny_dataset)
        out = predict_frontier(
            model, tiny_dataset.graph, Tensor(tiny_dataset.features), sampler,
            np.array([], dtype=np.int64), seed=0,
        )
        assert out.shape == (0, model.dims[-1])
        assert out.dtype == np.float32
        per_node = predict_nodes(
            model, tiny_dataset.graph, Tensor(tiny_dataset.features), sampler,
            np.array([], dtype=np.int64), seed=0,
        )
        assert per_node.shape == (0, model.dims[-1])

    def test_training_flag_and_dropout_counter_untouched(self, tiny_dataset):
        model, sampler = make_pair("sage", "neighbor", tiny_dataset)
        assert model.training
        before = keyed_training_loss(model, sampler, tiny_dataset)
        predict_frontier(
            model, tiny_dataset.graph, Tensor(tiny_dataset.features), sampler,
            request_nodes(tiny_dataset, 4), seed=0,
        )
        assert model.training
        assert keyed_training_loss(model, sampler, tiny_dataset) == before


class TestOneRequest:
    """A one-node micro-batch is sampled by ``sampler.sample`` — no merge
    bookkeeping — and must still serve the per-node reference's bits."""

    @staticmethod
    def assert_one_by_one(model, sampler, graph, features, nodes, recorder=NULL_RECORDER):
        for node in nodes:
            one = np.asarray([node], dtype=np.int64)
            got = predict_frontier(
                model, graph, features, sampler, one, seed=0, recorder=recorder
            )
            want = predict_nodes(model, graph, features, sampler, one, seed=0)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("model_name,sampler_name", [
        ("sage", "neighbor"),
        ("gcn", "shadow"),
    ])
    def test_matches_reference_and_books_no_merge(
        self, tiny_dataset, model_name, sampler_name
    ):
        model, sampler = make_pair(model_name, sampler_name, tiny_dataset)
        metrics = MetricRegistry()
        self.assert_one_by_one(
            model, sampler, tiny_dataset.graph, Tensor(tiny_dataset.features),
            request_nodes(tiny_dataset, 8), SpanRecorder(metrics),
        )
        assert "serve.phase.merge_s" not in metrics  # no merge span at all
        for phase in ("sample", "forward"):
            hist = metrics.get(f"serve.phase.{phase}_s")
            assert hist.count == 8 and hist.sum > 0.0

    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_zero_in_degree_seed(self, tiny_dataset, sampler_name):
        graph = tiny_dataset.graph
        isolated = np.flatnonzero(graph.in_degree(np.arange(graph.num_nodes)) == 0)
        assert len(isolated)
        model, sampler = make_pair("sage", sampler_name, tiny_dataset)
        self.assert_one_by_one(
            model, sampler, graph, Tensor(tiny_dataset.features), isolated[:3]
        )

    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_layered_graph_after_delta(self, tiny_dataset, sampler_name):
        """Seeds whose in-edges gained delta edges, sampled through the
        layered view's merged adjacency."""
        n = tiny_dataset.num_nodes
        rng = derive_rng(0, "one-request-delta")
        delta = GraphDelta(
            src=rng.integers(0, n, size=24).astype(np.int64),
            dst=rng.integers(0, n, size=24).astype(np.int64),
        )
        frag = DeltaFragment.from_delta(
            delta, num_nodes=n, feature_dim=int(tiny_dataset.features.shape[1]),
            feature_dtype=tiny_dataset.features.dtype,
        )
        graph = LayeredCSR(tiny_dataset.graph, [frag])
        model, sampler = make_pair("gcn", sampler_name, tiny_dataset)
        self.assert_one_by_one(
            model, sampler, graph, Tensor(tiny_dataset.features), frag.rows[:6]
        )

    def test_two_worker_pool_with_an_empty_chunk(self, tiny_dataset, trained_snapshot):
        nodes = request_nodes(tiny_dataset, 3)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool", workers=2,
            cache_entries=0, timeout=30.0,
        ) as pooled:
            got = predict_as(pooled, nodes, "per_node")
            assert pooled.phases.merge_s == 0.0
        np.testing.assert_array_equal(got, reference(trained_snapshot, tiny_dataset, nodes))


class TestMergedStructure:
    @pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
    def test_merge_round_trips_every_request(self, tiny_dataset, sampler_name):
        sampler = make_sampler(sampler_name, **SAMPLERS[sampler_name])
        nodes = request_nodes(tiny_dataset, 9)
        batches = [
            sampler.sample(
                tiny_dataset.graph,
                np.asarray([n], dtype=np.int64),
                rng=derive_rng(0, "serve", int(n)),
            )
            for n in nodes
        ]
        merged = merge_frontiers(batches)
        validate_merged(merged, batches)
        assert merged.num_requests == len(batches)
        np.testing.assert_array_equal(merged.seeds, nodes)
        np.testing.assert_array_equal(merged.blocks[-1].dst_ids, nodes)
        # no cross-request dedup: rows add up exactly
        for layer, blk in enumerate(merged.blocks):
            assert blk.num_src == sum(mb.blocks[layer].num_src for mb in batches)
            assert blk.num_edges == sum(mb.blocks[layer].num_edges for mb in batches)

    def test_merge_rejects_bad_input(self, tiny_dataset):
        sampler = make_sampler("neighbor", fanouts=[5, 5])
        short = make_sampler("neighbor", fanouts=[5])
        n = int(request_nodes(tiny_dataset, 1)[0])
        a = sampler.sample(tiny_dataset.graph, np.asarray([n]), rng=derive_rng(0, "s", n))
        b = short.sample(tiny_dataset.graph, np.asarray([n]), rng=derive_rng(0, "s", n))
        with pytest.raises(ValueError, match="at least one"):
            merge_frontiers([])
        with pytest.raises(ValueError, match="same number of layers"):
            merge_frontiers([a, b])

    def test_merged_block_split_validation(self, tiny_dataset):
        """Block rejects malformed segment offsets outright."""
        from repro.sampling.block import Block

        with pytest.raises(ValueError, match="set together"):
            Block(
                src_ids=np.arange(3), num_dst=1,
                edge_src=np.array([2]), edge_dst=np.array([0]),
                src_splits=np.array([0, 3]),
            )
        with pytest.raises(ValueError, match="monotone"):
            Block(
                src_ids=np.arange(3), num_dst=1,
                edge_src=np.array([2]), edge_dst=np.array([0]),
                src_splits=np.array([0, 2]), dst_splits=np.array([0, 1]),
            )


class TestEngineParity:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_inline_frontier_engine_matches_per_node(
        self, tiny_dataset, trained_snapshot, batch_size
    ):
        nodes = request_nodes(tiny_dataset, batch_size)
        expected = reference(trained_snapshot, tiny_dataset, nodes)
        with InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=0) as eng:
            np.testing.assert_array_equal(eng.predict(nodes), expected)

    def test_duplicate_and_overlapping_requests(self, tiny_dataset, trained_snapshot):
        """Duplicates inside one batch and across batches: one row each,
        all equal, computed once thanks to the engine's dedup."""
        nodes = request_nodes(tiny_dataset, 4)
        n0, n1 = int(nodes[0]), int(nodes[1])
        request = [n0, n1, n0, n0, n1]
        expected = reference(trained_snapshot, tiny_dataset, request)
        expected_follow_up = reference(trained_snapshot, tiny_dataset, nodes)
        with InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=64) as eng:
            got = eng.predict(request)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(got[0], got[2])
            # overlapping follow-up batch: cache hits + fresh merges agree
            np.testing.assert_array_equal(eng.predict(nodes), expected_follow_up)

    def test_frontier_cache_interaction_exact(self, tiny_dataset, trained_snapshot):
        with InferenceEngine(trained_snapshot, tiny_dataset, cache_entries=64) as eng:
            nodes = request_nodes(tiny_dataset, 6)
            first = eng.predict(nodes)
            second = eng.predict(nodes)
            np.testing.assert_array_equal(first, second)
            assert eng.cache.stats.hits == 6

    def test_bad_batch_mode_rejected(self, tiny_dataset, trained_snapshot):
        """Only the one forward is accepted; the per-node mode is retired."""
        for batch_mode in ("mega", "per_node"):
            with pytest.raises(ValueError, match="per-node mode was retired"):
                InferenceEngine(trained_snapshot, tiny_dataset, batch_mode=batch_mode)


class TestPoolParity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_frontier_matches_inline_per_node(
        self, tiny_dataset, trained_snapshot, workers
    ):
        nodes = request_nodes(tiny_dataset, 10)
        expected = reference(trained_snapshot, tiny_dataset, nodes)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool",
            workers=workers, cache_entries=0, timeout=30.0,
        ) as pooled:
            got = pooled.predict(nodes)
            np.testing.assert_array_equal(got, expected)
            assert pooled.transport.arena_hits > 0

    def test_pool_frontier_duplicates_and_shards(self, tiny_dataset, trained_snapshot):
        """Sharding across ranks + frontier merge per rank cannot change
        any prediction, whatever the request mix."""
        nodes = request_nodes(tiny_dataset, 7)
        request = list(nodes) + [int(nodes[0]), int(nodes[3])]
        expected = reference(trained_snapshot, tiny_dataset, request)
        with InferenceEngine(
            trained_snapshot, tiny_dataset, mode="pool",
            workers=2, cache_entries=0, timeout=30.0,
        ) as pooled:
            np.testing.assert_array_equal(pooled.predict(request), expected)
