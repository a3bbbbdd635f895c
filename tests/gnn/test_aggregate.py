"""Segment aggregation: values, edge cases, gradients."""

import numpy as np
import pytest

import repro.gnn.aggregate as agg
from repro.autograd.functional import cross_entropy
from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor
from repro.gnn.aggregate import aggregate_mean, aggregate_sum, gcn_norm_coefficients
from repro.gnn.models import make_task
from repro.serve.engine import predict_nodes
from repro.serve.frontier import predict_frontier
from repro.utils.rng import derive_rng


class TestAggregateSum:
    def test_simple_sum(self):
        h = Tensor(np.array([[1.0], [2.0], [4.0]]))
        out = aggregate_sum(h, np.array([0, 1, 2]), np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [4.0]])

    def test_weighted(self):
        h = Tensor(np.array([[1.0], [2.0]]))
        out = aggregate_sum(
            h, np.array([0, 1]), np.array([0, 0]), 1, edge_weight=np.array([0.5, 2.0])
        )
        np.testing.assert_allclose(out.data, [[4.5]])

    def test_isolated_dst_zero(self):
        h = Tensor(np.ones((2, 3)))
        out = aggregate_sum(h, np.array([0]), np.array([0]), 3)
        np.testing.assert_allclose(out.data[1:], 0.0)

    def test_gradient_flows(self):
        h = Tensor(np.ones((3, 2)), requires_grad=True)
        out = aggregate_sum(h, np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        out.sum().backward()
        np.testing.assert_allclose(h.grad, [[1, 1], [2, 2], [0, 0]])

    def test_rejects_out_of_range(self):
        h = Tensor(np.ones((2, 1)))
        with pytest.raises(ValueError):
            aggregate_sum(h, np.array([5]), np.array([0]), 1)
        with pytest.raises(ValueError):
            aggregate_sum(h, np.array([0]), np.array([3]), 1)

    def test_rejects_bad_weight_shape(self):
        h = Tensor(np.ones((2, 1)))
        with pytest.raises(ValueError):
            aggregate_sum(h, np.array([0]), np.array([0]), 1, edge_weight=np.ones(2))


class TestAggregateMean:
    def test_simple_mean(self):
        h = Tensor(np.array([[2.0], [4.0]]))
        out = aggregate_mean(h, np.array([0, 1]), np.array([0, 0]), 1)
        np.testing.assert_allclose(out.data, [[3.0]])

    def test_isolated_dst_zero_not_nan(self):
        h = Tensor(np.ones((2, 2)))
        out = aggregate_mean(h, np.array([0]), np.array([0]), 2)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data[1], 0.0)

    def test_gradient_scaled_by_degree(self):
        h = Tensor(np.ones((2, 1)), requires_grad=True)
        out = aggregate_mean(h, np.array([0, 1]), np.array([0, 0]), 1)
        out.sum().backward()
        np.testing.assert_allclose(h.grad, [[0.5], [0.5]])


class TestGcnNorm:
    def test_symmetric_values(self):
        # single edge u->v: d_out(u)=1, d_in(v)=1 -> coeff 1
        coeff = gcn_norm_coefficients(np.array([0]), np.array([0]), 1, 1)
        np.testing.assert_allclose(coeff, [1.0])

    def test_degree_two(self):
        # node 0 sends to both dst 0 and dst 1; each dst has in-degree 1
        coeff = gcn_norm_coefficients(np.array([0, 0]), np.array([0, 1]), 1, 2)
        np.testing.assert_allclose(coeff, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_matches_paper_eq1(self):
        """coeff(u,v) == 1/sqrt(D(u) D(v)) with block-local degrees."""
        src = np.array([0, 0, 1, 2])
        dst = np.array([0, 1, 1, 1])
        coeff = gcn_norm_coefficients(src, dst, 3, 2)
        d_out = np.array([2, 1, 1])
        d_in = np.array([1, 3])
        expected = 1 / np.sqrt(d_out[src] * d_in[dst])
        np.testing.assert_allclose(coeff, expected, rtol=1e-6)

    def test_empty_edges(self):
        coeff = gcn_norm_coefficients(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 3, 3)
        assert coeff.size == 0


class TestBlockOperators:
    """One operator per block and aggregation kind, shared by every layer
    on that block and by their backward passes."""

    @pytest.fixture
    def trace(self, monkeypatch):
        """(operators built, operator used by each product), in order."""
        built, used = [], []

        class Recording(agg.EdgeOperator):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        def recording(node, op_arg):
            def run(*args):
                used.append(args[op_arg])
                return node(*args)

            return run

        # GCN aggregates through sparse_product(op, h), SAGE through
        # concat_mean(h, op, inv, positions)
        monkeypatch.setattr(agg, "EdgeOperator", Recording)
        monkeypatch.setattr(agg, "sparse_product", recording(agg.sparse_product, 0))
        monkeypatch.setattr(agg, "concat_mean", recording(agg.concat_mean, 1))
        return built, used

    def step(self, task, ds):
        sampler, model = make_task(task, ds.layer_dims(3), seed=0)
        batch = sampler.sample(ds.graph, ds.train_idx[:32], rng=derive_rng(0, "memo"))
        x = gather_rows(Tensor(ds.features), batch.input_ids)
        cross_entropy(model(batch.blocks, x), ds.labels[batch.seeds]).backward()
        return model, batch, x

    def test_shadow_step_builds_one_operator_for_the_shared_block(self, trace, tiny_dataset):
        built, used = trace
        model, batch, x = self.step("shadow-gcn", tiny_dataset)
        assert batch.blocks[0] is batch.blocks[1] is not batch.blocks[2]
        # layers 1 and 2 run on the same block: one build, one operator
        assert len(built) == 2
        assert used[0] is used[1] is built[0] and used[2] is built[1]
        # one transpose per operator, built by the first backward through it
        assert all(op._transpose is not None for op in built)
        model(batch.blocks, x)
        assert len(built) == 2 and used[3] is used[4] is built[0]

    def test_neighbor_step_builds_one_operator_per_block(self, trace, tiny_dataset):
        built, used = trace
        self.step("neighbor-sage", tiny_dataset)
        assert len(built) == 3 and used == built

    @pytest.mark.parametrize("task", ["neighbor-sage", "shadow-gcn"])
    @pytest.mark.parametrize("predict", [predict_nodes, predict_frontier])
    def test_inference_builds_no_transpose(self, trace, tiny_dataset, task, predict):
        built, _ = trace
        ds = tiny_dataset
        sampler, model = make_task(task, ds.layer_dims(3), seed=0)
        predict(model, ds.graph, Tensor(ds.features), sampler, ds.train_idx[:4], seed=0)
        assert built and all(op._transpose is None for op in built)
