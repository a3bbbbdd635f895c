"""Whole-model training parity with the unfused, per-call oracle ops.

GraphSAGE and GCN run on per-block memoised :class:`EdgeOperator`\\ s and
one fused dense node per layer.  The oracle below rebuilds each layer
from the ops the models used before: a gather → scale → ``np.add.at``
aggregation (forward and transposed), and ``matmul`` → ``add`` →
``relu`` → ``dropout`` with the models' own dropout streams.  Three Adam
steps on real neighbour and ShaDow batches must agree bit for bit on
losses, gradients and updated parameters — a trajectory golden that
holds on any host, because both sides run the same BLAS.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import ops
from repro.autograd.functional import cross_entropy
from repro.autograd.optim import Adam
from repro.autograd.tensor import Tensor
from repro.gnn.aggregate import gcn_norm_coefficients
from repro.gnn.gcn import GCN
from repro.gnn.models import build_model
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.shadow import ShadowSampler
from repro.utils.rng import derive_rng

from tests.autograd.test_spmm import assert_same_bits


def scatter(x, rows, cols, num_rows, weight):
    """``out[rows[e]] += weight[e] * x[cols[e]]`` via ``np.add.at``."""
    messages = x[cols]
    if weight is not None:
        messages = messages * weight.astype(x.dtype)[:, None]
    out = np.zeros((num_rows,) + x.shape[1:], dtype=x.dtype)
    np.add.at(out, rows, messages)
    return out


def oracle_spmm(h, rows, cols, num_rows, weight=None):
    return Tensor(
        scatter(h.data, rows, cols, num_rows, weight),
        _parents=[(h, lambda g: scatter(g, cols, rows, len(h.data), weight))],
        _op="oracle_spmm",
    )


def oracle_gather(h, index):
    edges = np.arange(len(index))
    return Tensor(
        h.data[index],
        _parents=[(h, lambda g: scatter(g, index, edges, len(h.data), None))],
        _op="oracle_gather",
    )


def oracle_aggregate(layer_is_gcn, block, h):
    if layer_is_gcn:
        coeff = gcn_norm_coefficients(block.edge_src, block.edge_dst, block.num_src, block.num_dst)
        return oracle_spmm(h, block.edge_dst, block.edge_src, block.num_dst, coeff)
    summed = oracle_spmm(h, block.edge_dst, block.edge_src, block.num_dst)
    counts = np.bincount(block.edge_dst, minlength=block.num_dst).astype(np.float32)
    inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    h_neigh = ops.mul(summed, inv[:, None])
    return ops.concat([oracle_gather(h, block.dst_positions), h_neigh], axis=-1)


def oracle_forward(model, blocks, x, key: tuple):
    """The model's forward from the unfused ops, layer ``i``'s dropout
    mask drawn from ``derive_rng(seed, "dropout", *key, i)``."""
    is_gcn = isinstance(model, GCN)
    h = x
    for i, (layer, block) in enumerate(zip(model._layers, blocks)):
        lin = layer.linear
        out = ops.matmul(oracle_aggregate(is_gcn, block, h), lin.weight, row_splits=block.dst_splits)
        out = ops.add(out, lin.bias)
        if i < len(blocks) - 1:
            out = ops.relu(out)
            if model.training and model.dropout > 0:
                rng = derive_rng(model.seed, "dropout", *key, i)
                out = ops.dropout(out, model.dropout, training=True, rng=rng)
        h = out
    return h


SAMPLERS = {
    "neighbor": lambda: NeighborSampler([10, 5, 5]),
    "shadow": lambda: ShadowSampler([10, 5], num_layers=3),
}


@pytest.mark.parametrize("model_name", ["sage", "gcn"])
@pytest.mark.parametrize("sampler_name", sorted(SAMPLERS))
def test_three_adam_steps_equal_the_oracle_ops_bitwise(model_name, sampler_name, tiny_dataset):
    ds = tiny_dataset
    sampler = SAMPLERS[sampler_name]()
    model = build_model(model_name, ds.layer_dims(3), seed=0)
    oracle = build_model(model_name, ds.layer_dims(3), seed=0)
    opt, oracle_opt = Adam(model.parameters(), lr=0.01), Adam(oracle.parameters(), lr=0.01)
    feats = Tensor(ds.features)
    for step in range(3):
        seeds = ds.train_idx[32 * step : 32 * (step + 1)]
        batch = sampler.sample(ds.graph, seeds, rng=derive_rng(0, "parity", step))
        x = ops.gather_rows(feats, batch.input_ids)
        labels = ds.labels[batch.seeds]
        key = (0, 0, step, 0)
        loss = cross_entropy(model(batch.blocks, x, dropout_key=key), labels)
        logits = oracle_forward(oracle, batch.blocks, x, key)
        oracle_loss = cross_entropy(logits, labels)
        for m, l in ((model, loss), (oracle, oracle_loss)):
            m.zero_grad()
            l.backward()
        assert_same_bits(loss.data, oracle_loss.data)
        for p, q in zip(model.parameters(), oracle.parameters()):
            assert_same_bits(p.grad, q.grad)
        opt.step()
        oracle_opt.step()
        for p, q in zip(model.parameters(), oracle.parameters()):
            assert_same_bits(p.data, q.data)
