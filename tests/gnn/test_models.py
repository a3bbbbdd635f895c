"""GCN / GraphSAGE model behaviour on sampled blocks."""

import copy

import numpy as np
import pytest

from repro.autograd.functional import cross_entropy
from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor
from repro.core.engine import MultiProcessEngine
from repro.gnn.gcn import GCN, GCNConv
from repro.gnn.sage import GraphSAGE, SAGEConv
from repro.gnn.models import MODEL_REGISTRY, TASKS, build_model, make_task
from repro.sampling.block import Block
from repro.sampling.neighbor import NeighborSampler


def toy_block():
    """3 dst nodes (prefix) + 2 extra sources, 4 edges."""
    return Block(
        src_ids=np.array([10, 11, 12, 20, 21]),
        num_dst=3,
        edge_src=np.array([3, 4, 0, 1]),
        edge_dst=np.array([0, 0, 1, 2]),
    )


class TestConvLayers:
    def test_gcn_conv_shape(self):
        conv = GCNConv(4, 8, rng=np.random.default_rng(0))
        out = conv(toy_block(), Tensor(np.ones((5, 4))))
        assert out.shape == (3, 8)

    def test_sage_conv_shape(self):
        conv = SAGEConv(4, 8, rng=np.random.default_rng(0))
        out = conv(toy_block(), Tensor(np.ones((5, 4))))
        assert out.shape == (3, 8)

    def test_sage_uses_self_features(self):
        """Isolated dst node output must depend on its own feature."""
        blk = Block(
            src_ids=np.array([0, 1]), num_dst=2, edge_src=np.array([1]), edge_dst=np.array([1])
        )
        conv = SAGEConv(2, 2, rng=np.random.default_rng(0))
        h1 = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        h2 = Tensor(np.array([[2.0, 0.0], [0.0, 0.0]]))
        out1, out2 = conv(blk, h1), conv(blk, h2)
        assert not np.allclose(out1.data[0], out2.data[0])

    def test_rejects_feature_row_mismatch(self):
        conv = GCNConv(4, 8)
        with pytest.raises(ValueError):
            conv(toy_block(), Tensor(np.ones((3, 4))))


@pytest.mark.parametrize("model_name", ["gcn", "sage"])
class TestFullModels:
    def test_forward_on_sampled_batch(self, model_name, tiny_dataset):
        ds = tiny_dataset
        sampler = NeighborSampler([5, 5, 5])
        batch = sampler.sample(ds.graph, ds.train_idx[:16], rng=np.random.default_rng(0))
        model = build_model(model_name, ds.layer_dims(3), seed=0)
        x = gather_rows(Tensor(ds.features), batch.input_ids)
        out = model(batch.blocks, x)
        assert out.shape == (16, ds.spec.num_classes)

    def test_training_reduces_loss(self, model_name, tiny_dataset):
        from repro.autograd.optim import Adam

        ds = tiny_dataset
        sampler = NeighborSampler([5, 5, 5])
        model = build_model(model_name, ds.layer_dims(3), seed=0, dropout=0.0)
        opt = Adam(model.parameters(), lr=0.01)
        rng = np.random.default_rng(0)
        batch = sampler.sample(ds.graph, ds.train_idx[:64], rng=rng)
        x = gather_rows(Tensor(ds.features), batch.input_ids)
        first = last = None
        for step in range(30):
            out = model(batch.blocks, x)
            loss = cross_entropy(out, ds.labels[batch.seeds])
            model.zero_grad()
            loss.backward()
            opt.step()
            if first is None:
                first = loss.item()
            last = loss.item()
        assert last < first * 0.7

    def test_block_count_validated(self, model_name, tiny_dataset):
        model = build_model(model_name, tiny_dataset.layer_dims(3), seed=0)
        with pytest.raises(ValueError):
            model([toy_block()], Tensor(np.ones((5, 100))))

    def test_eval_mode_deterministic(self, model_name, tiny_dataset):
        ds = tiny_dataset
        sampler = NeighborSampler([5, 5, 5])
        batch = sampler.sample(ds.graph, ds.train_idx[:8], rng=np.random.default_rng(0))
        model = build_model(model_name, ds.layer_dims(3), seed=0, dropout=0.5)
        model.eval()
        x = gather_rows(Tensor(ds.features), batch.input_ids)
        a = model(batch.blocks, x).data
        b = model(batch.blocks, x).data
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("model_name", ["gcn", "sage"])
class TestDropoutKey:
    """A dropout mask is a pure function of its key: layer ``i`` of a
    forward at ``dropout_key=k`` draws from ``(seed, "dropout", *k, i)``."""

    @staticmethod
    def logits(model_name, ds, key, *, train=True):
        sampler = NeighborSampler([5, 5, 5])
        batch = sampler.sample(ds.graph, ds.train_idx[:16], rng=np.random.default_rng(0))
        model = build_model(model_name, ds.layer_dims(3), seed=0, dropout=0.5)
        model.train(train)
        x = gather_rows(Tensor(ds.features), batch.input_ids)
        return model(batch.blocks, x, dropout_key=key).data

    def test_ranks_draw_different_masks(self, model_name, tiny_dataset):
        rank0 = self.logits(model_name, tiny_dataset, (3, 1, 2, 0))
        rank1 = self.logits(model_name, tiny_dataset, (3, 1, 2, 1))
        assert not np.array_equal(rank0, rank1)

    def test_same_key_same_bits(self, model_name, tiny_dataset):
        a = self.logits(model_name, tiny_dataset, (3, 1, 2, 0))
        b = self.logits(model_name, tiny_dataset, (3, 1, 2, 0))
        assert a.tobytes() == b.tobytes()

    def test_eval_mode_ignores_the_key(self, model_name, tiny_dataset):
        a = self.logits(model_name, tiny_dataset, (3, 1, 2, 0), train=False)
        b = self.logits(model_name, tiny_dataset, (3, 1, 2, 1), train=False)
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("task", sorted(TASKS))
def test_engine_ranks_draw_different_masks(task, tiny_dataset):
    """At the first step of an inline engine at n=2, dropout 0.5, rank
    0's chunk replayed under rank 1's key gives other outputs, so the two
    ranks' masks differ."""
    ds = tiny_dataset
    sampler, model = make_task(task, ds.layer_dims(2), seed=0, dropout=0.5)
    fresh = copy.deepcopy(model)
    calls = []
    forward = model.forward

    def recording_forward(blocks, x, *, dropout_key=()):
        out = forward(blocks, x, dropout_key=dropout_key)
        calls.append((blocks, x, dropout_key, out.data.copy()))
        return out

    model.forward = recording_forward
    engine = MultiProcessEngine(
        ds, sampler, model, num_processes=2, global_batch_size=64, backend="inline", seed=5
    )
    engine.train_epoch()
    (blocks, x, key0, out0), (_, _, key1, _) = calls[:2]
    assert (key0, key1) == ((5, 0, 0, 0), (5, 0, 0, 1))
    assert fresh(blocks, x, dropout_key=key0).data.tobytes() == out0.tobytes()
    assert not np.array_equal(fresh(blocks, x, dropout_key=key1).data, out0)


def _tape_recording_constants(data, parents, op):
    """``ops._make`` before constants were dropped: every parent recorded."""
    requires = any(p.requires_grad or p._parents for p, _ in parents)
    return Tensor(data, requires_grad=False, _parents=parents if requires else None, _op=op)


@pytest.mark.parametrize("task", sorted(TASKS))
def test_dropping_constant_vjps_leaves_gradients_bit_equal(task, tiny_dataset, monkeypatch):
    """GCN's edge weights and SAGE's 1/deg are constants inside ``mul``:
    skipping their VJPs must not move one bit of any parameter gradient."""
    from repro.autograd import ops

    ds = tiny_dataset

    def step_grads():
        sampler, model = make_task(task, ds.layer_dims(3), seed=0)
        batch = sampler.sample(ds.graph, ds.train_idx[:32], rng=np.random.default_rng(0))
        out = model(batch.blocks, gather_rows(Tensor(ds.features), batch.input_ids))
        cross_entropy(out, ds.labels[batch.seeds]).backward()
        return [p.grad for p in model.parameters()]

    now = step_grads()
    monkeypatch.setattr(ops, "_make", _tape_recording_constants)
    before = step_grads()
    assert len(now) == len(before) > 0
    for a, b in zip(now, before):
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


class TestFactories:
    def test_registry_names(self):
        assert set(MODEL_REGISTRY) == {"gcn", "sage", "graphsage"}

    @pytest.mark.parametrize("name", ["transformer", "gat"])
    def test_unknown_model(self, name):
        with pytest.raises(KeyError, match="known: \\['gcn', 'graphsage', 'sage'\\]"):
            build_model(name, [4, 2])

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            build_model("gcn", [4])

    def test_tasks_are_papers_pairings(self):
        assert TASKS == {
            "neighbor-sage": ("neighbor", "sage"),
            "shadow-gcn": ("shadow", "gcn"),
        }

    def test_make_task_neighbor_defaults(self, tiny_dataset):
        sampler, model = make_task("neighbor-sage", tiny_dataset.layer_dims(3))
        assert sampler.fanouts == [15, 10, 5]
        assert isinstance(model, GraphSAGE)

    def test_make_task_shadow_defaults(self, tiny_dataset):
        sampler, model = make_task("shadow-gcn", tiny_dataset.layer_dims(3))
        assert sampler.fanouts == [10, 5]
        assert sampler.num_layers == 3
        assert isinstance(model, GCN)

    def test_make_task_unknown(self):
        with pytest.raises(KeyError):
            make_task("cluster-gat", [4, 2])

    def test_make_task_fanout_mismatch(self):
        with pytest.raises(ValueError):
            make_task("neighbor-sage", [4, 8, 2], fanouts=[5, 5, 5])


class TestBuildLayerStack:
    def test_registers_conv_attributes(self, tiny_dataset):
        from repro.autograd.module import Linear, Module
        from repro.gnn.models import build_layer_stack

        class Host(Module):
            pass

        host = Host()
        layers = build_layer_stack(host, [8, 4, 2], Linear, stream="x", seed=0)
        assert len(layers) == 2
        assert host.conv0 is layers[0] and host.conv1 is layers[1]
        assert len(host.parameters()) == 4  # 2 layers x (weight, bias)

    def test_rejects_short_dims(self):
        from repro.autograd.module import Linear, Module
        from repro.gnn.models import build_layer_stack

        with pytest.raises(ValueError, match="dims"):
            build_layer_stack(Module(), [8], Linear, stream="x", seed=0)

    def test_models_share_stack_builder_determinism(self, tiny_dataset):
        """Same seed => same init through the shared helper (state_dict
        names and values unchanged by the refactor)."""
        dims = tiny_dataset.layer_dims(2)
        for name in ("gcn", "sage"):
            m1 = build_model(name, dims, seed=4)
            m2 = build_model(name, dims, seed=4)
            sd1, sd2 = m1.state_dict(), m2.state_dict()
            assert list(sd1) == list(sd2)
            assert all(k.startswith("conv") for k in sd1)
            for k in sd1:
                np.testing.assert_array_equal(sd1[k], sd2[k])
