"""The fused dense tail against the unfused op chain, bit for bit.

``ops.linear`` computes ``dropout(relu(x @ W + b))`` as one tape node.
Its oracle is the chain it replaced on the model path —
``matmul`` → ``add`` → ``relu`` → ``dropout`` — and every comparison
(output, ``dx``, ``dW``, ``db``) is on raw bit patterns.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.autograd import ops
from repro.autograd.module import Linear
from repro.autograd.tensor import Tensor, inference_mode
from repro.utils.rng import derive_rng

from tests.autograd.test_spmm import assert_same_bits, features

SPLITS = {"whole": None, "segments": np.array([0, 5, 5, 23, 40])}


def unfused(x, w, b, *, row_splits, relu, dropout, rng_key):
    out = ops.matmul(x, w, row_splits=row_splits)
    if b is not None:
        out = ops.add(out, b)
    if relu:
        out = ops.relu(out)
    if dropout:
        out = ops.dropout(out, dropout, training=True, rng=derive_rng(*rng_key))
    return out


def fused(x, w, b, *, row_splits, relu, dropout, rng_key):
    rng = derive_rng(*rng_key) if dropout else None
    return ops.linear(x, w, b, row_splits=row_splits, relu=relu, dropout=dropout, rng=rng)


def run(forward, dtype, *, bias, **kwargs):
    """(output, dx, dW, db) of one forward+backward."""
    rng = derive_rng(1, "dense", str(np.dtype(dtype)))
    x = Tensor(features(rng, (40, 24), dtype), requires_grad=True)
    w = Tensor(features(rng, (24, 16), dtype), requires_grad=True)
    b = None
    if bias:
        # a NaN column: ReLU must map it to +0.0 the way ops.relu does
        b = Tensor(features(rng, (16,), dtype), requires_grad=True)
        b.data[3] = np.nan
    out = forward(x, w, b, **kwargs)
    upstream = features(rng, out.shape, dtype)
    kept = upstream.copy()
    out.backward(upstream)
    # the incoming gradient is never written (add hands one array to two
    # parents, so a mutated upstream would corrupt a sibling's gradient)
    assert_same_bits(upstream, kept)
    return out.data, x.grad, w.grad, None if b is None else b.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("splits", sorted(SPLITS))
@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_fused_equals_unfused_bitwise(dtype, splits, bias, relu, dropout):
    kwargs = dict(
        bias=bias,
        row_splits=SPLITS[splits],
        relu=relu,
        dropout=dropout,
        rng_key=(3, "dropout", 7),
    )
    got, want = run(fused, dtype, **kwargs), run(unfused, dtype, **kwargs)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert_same_bits(g, w)


def test_sibling_gradient_survives_the_fused_backward():
    """``add`` passes the same upstream array to both parents: the fused
    node's masking must not leak into the other parent's gradient."""
    rng = derive_rng(2, "sibling")
    x = Tensor(features(rng, (12, 6), np.float32), requires_grad=True)
    w = Tensor(features(rng, (6, 5), np.float32), requires_grad=True)
    other = Tensor(features(rng, (12, 5), np.float32), requires_grad=True)
    out = ops.linear(x, w, np.zeros(5, np.float32), relu=True, dropout=0.5, rng=derive_rng(0))
    upstream = features(rng, (12, 5), np.float32)
    ops.add(other, out).backward(upstream)
    assert_same_bits(other.grad, upstream)


@pytest.mark.parametrize("bias", [True, False])
def test_backward_keeps_no_gradient_alive(bias):
    """The masked gradient is shared by the node's VJPs, then dropped:
    a finished backward leaves no reference to the upstream array."""
    rng = derive_rng(5, "release")
    x = Tensor(features(rng, (10, 4), np.float32), requires_grad=True)
    w = Tensor(features(rng, (4, 3), np.float32), requires_grad=True)
    b = Tensor(np.zeros(3, np.float32), requires_grad=True) if bias else None
    out = ops.linear(x, w, b, relu=True, dropout=0.5, rng=derive_rng(0))
    upstream = features(rng, (10, 3), np.float32)
    before = sys.getrefcount(upstream)
    out.backward(upstream)
    assert sys.getrefcount(upstream) == before


def test_inference_forward_matches_and_records_nothing():
    rng = derive_rng(4, "infer")
    x, w = features(rng, (9, 4), np.float32), features(rng, (4, 3), np.float32)
    b = features(rng, (3,), np.float32)
    with inference_mode():
        got = ops.linear(x, w, b, relu=True)
        want = ops.relu(ops.add(ops.matmul(x, w), b))
    assert_same_bits(got.data, want.data)
    assert got._parents == []


def test_linear_module_runs_the_fused_node():
    lin = Linear(4, 3, rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((5, 4)).astype(np.float32))
    out = lin(x, relu=True)
    assert out._op == "linear"
    want = ops.relu(ops.add(ops.matmul(x, lin.weight), lin.bias))
    assert_same_bits(out.data, want.data)


@pytest.mark.parametrize("p", [-0.1, 1.0])
def test_rejects_a_bad_dropout_probability(p):
    with pytest.raises(ValueError, match="dropout"):
        ops.linear(np.ones((2, 2)), np.ones((2, 2)), dropout=p)


def test_rejects_bad_row_splits():
    with pytest.raises(ValueError, match="row_splits"):
        ops.linear(np.ones((4, 2)), np.ones((2, 2)), row_splits=np.array([0, 3, 2, 4]))
