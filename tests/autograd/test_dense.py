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
from repro.autograd.tensor import Tensor, inference_mode, no_grad
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


CHUNK = ops._DRAW_CHUNK
#: output sizes around the dropout draw's chunk boundaries
CHUNK_SIZES = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]
#: pre-activations the mask fold must carry exactly; a -0.0 cannot come
#: out of the GEMM (BLAS seeds every sum with +0.0), the upstream
#: gradient carries the signed zeros instead
SPECIALS = [np.nan, np.inf, -np.inf, 0.0]


def special_inputs(size, dtype, bias):
    """(x, W, b) whose ``x @ W + b`` has ``size`` elements and holds NaN,
    ±inf and +0.0 in its first column: ``x`` is one column wide and
    ``W[0, 0] = 1``, so that column is ``x`` itself (``b[0] = -0.0``
    keeps every special)."""
    cols = max(d for d in range(1, 129) if size % d == 0)
    rng = derive_rng(6, "chunk", size, str(np.dtype(dtype)))
    x = features(rng, (size // cols, 1), dtype)
    specials = np.array(SPECIALS, dtype=dtype)[: len(x)]
    x[: len(specials), 0] = specials
    w = features(rng, (1, cols), dtype)
    w[0, 0] = 1.0
    b = None
    if bias:
        b = features(rng, (cols,), dtype)
        b[0] = -0.0
    return x, w, b


def run_on(forward, inputs, **kwargs):
    """(output, dx, dW, db) of one forward+backward on copies of ``inputs``."""
    x, w, b = (None if a is None else Tensor(a.copy(), requires_grad=True) for a in inputs)
    out = forward(x, w, b, **kwargs)
    out.backward(features(derive_rng(8, "upstream", out.size), out.shape, out.dtype))
    return out.data, x.grad, w.grad, None if b is None else b.grad


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("dropout", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_chunked_mask_equals_unfused_bitwise(size, dropout, relu, dtype):
    """The chunk-drawn mask, with the ReLU mask folded in, matches the
    unfused chain's one-shot draw on sizes straddling the chunk."""
    inputs = special_inputs(size, dtype, bias=size > 1)
    pre = inputs[0] @ inputs[1]
    if size > 1:
        col = pre[:, 0] + inputs[2][0]
        want = np.array(SPECIALS, dtype=dtype)
        assert_same_bits(col[: len(want)], want)
    kwargs = dict(row_splits=None, relu=relu, dropout=dropout, rng_key=(9, "chunk", size))
    got, want = run_on(fused, inputs, **kwargs), run_on(unfused, inputs, **kwargs)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert_same_bits(g, w)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_chunked_draw_leaves_the_generator_where_one_draw_does(size, dtype):
    x, w, b = special_inputs(size, dtype, bias=True)
    rng, oracle = derive_rng(10, "state"), derive_rng(10, "state")
    out = ops.linear(x, w, b, relu=True, dropout=0.5, rng=rng)
    oracle.random(out.shape)
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("mode", ["no_grad", "inference_mode"])
def test_forward_without_grad_equals_the_taped_forward(mode, dropout):
    """Without a tape the ReLU mask is never computed: the output does
    not move a bit."""
    x, w, b = special_inputs(CHUNK + 1, np.float32, bias=True)
    taped = ops.linear(x, w, b, relu=True, dropout=dropout, rng=derive_rng(11))
    with {"no_grad": no_grad, "inference_mode": inference_mode}[mode]():
        bare = ops.linear(x, w, b, relu=True, dropout=dropout, rng=derive_rng(11))
    assert_same_bits(bare.data, taped.data)
    assert bare._parents == []
