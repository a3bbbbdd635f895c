"""Finite-difference verification of every op's backward pass.

Each differentiable primitive is checked against central differences in
float64.  This is the ground truth making the rest of the training stack
trustworthy: if these pass, DDP gradient averaging and the convergence
experiments rest on correct calculus.
"""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd import ops
from repro.autograd.tensor import Tensor


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``fn`` at ``x``."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, x0: np.ndarray, rtol=1e-4, atol=1e-5):
    """Compare autograd gradient of ``sum(build(Tensor(x)))`` vs numeric."""
    x0 = x0.astype(np.float64)

    def scalar(x):
        t = Tensor(x.copy(), requires_grad=True)
        return float(build(t).sum().data)

    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t).sum()
    out.backward()
    assert t.grad is not None, "no gradient propagated"
    num = numeric_grad(scalar, x0.copy())
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=atol)


RNG = np.random.default_rng(0)


class TestElementwiseGrads:
    def test_add(self):
        check_op(lambda t: t + 2.0, RNG.standard_normal((3, 4)))

    def test_add_broadcast(self):
        b = RNG.standard_normal(4)
        check_op(lambda t: t + Tensor(b), RNG.standard_normal((3, 4)))

    def test_sub(self):
        check_op(lambda t: 1.0 - t, RNG.standard_normal((2, 3)))

    def test_mul(self):
        c = RNG.standard_normal((2, 3))
        check_op(lambda t: t * Tensor(c), RNG.standard_normal((2, 3)))

    def test_div(self):
        c = RNG.standard_normal((2, 3)) + 3.0
        check_op(lambda t: t / Tensor(c), RNG.standard_normal((2, 3)))

    def test_div_wrt_denominator(self):
        num = Tensor(RNG.standard_normal((2, 3)))
        check_op(lambda t: ops.div(num, t), RNG.standard_normal((2, 3)) + 3.0)

    def test_pow(self):
        check_op(lambda t: t**3.0, RNG.standard_normal((2, 3)) + 2.5)

    def test_exp(self):
        check_op(ops.exp, RNG.standard_normal((2, 3)))

    def test_log(self):
        check_op(ops.log, RNG.random((2, 3)) + 0.5)

    def test_relu(self):
        # keep values away from the kink
        x = RNG.standard_normal((3, 4))
        x[np.abs(x) < 0.1] = 0.5
        check_op(ops.relu, x)

    def test_neg(self):
        check_op(lambda t: -t, RNG.standard_normal((2, 2)))


class TestLinalgGrads:
    def test_matmul_left(self):
        w = RNG.standard_normal((4, 5))
        check_op(lambda t: t @ Tensor(w), RNG.standard_normal((3, 4)))

    def test_matmul_right(self):
        x = Tensor(RNG.standard_normal((3, 4)))
        check_op(lambda t: ops.matmul(x, t), RNG.standard_normal((4, 5)))

    def test_transpose(self):
        check_op(lambda t: t.T, RNG.standard_normal((3, 4)))

    def test_reshape(self):
        check_op(lambda t: t.reshape(6), RNG.standard_normal((2, 3)))


class TestShapeGrads:
    def test_concat(self):
        other = Tensor(RNG.standard_normal((3, 2)))
        check_op(lambda t: ops.concat([t, other], axis=-1), RNG.standard_normal((3, 4)))

    def test_concat_wrt_second(self):
        first = Tensor(RNG.standard_normal((3, 4)))
        check_op(lambda t: ops.concat([first, t], axis=-1), RNG.standard_normal((3, 2)))

    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        check_op(lambda t: ops.gather_rows(t, idx), RNG.standard_normal((3, 4)))


class TestReductionGrads:
    def test_sum_all(self):
        check_op(lambda t: t.sum(), RNG.standard_normal((3, 4)))

    def test_sum_axis(self):
        check_op(lambda t: t.sum(axis=0), RNG.standard_normal((3, 4)))

    def test_sum_keepdims(self):
        check_op(lambda t: t.sum(axis=1, keepdims=True), RNG.standard_normal((3, 4)))

    def test_mean_all(self):
        check_op(lambda t: t.mean(), RNG.standard_normal((3, 4)))

    def test_mean_axis(self):
        check_op(lambda t: t.mean(axis=1), RNG.standard_normal((3, 4)))


class TestLossGrads:
    def test_log_softmax(self):
        check_op(lambda t: F.log_softmax(t), RNG.standard_normal((4, 5)))

    def test_nll_loss_mean(self):
        targets = np.array([0, 2, 1, 4])
        check_op(lambda t: F.nll_loss(F.log_softmax(t), targets), RNG.standard_normal((4, 5)))

    def test_nll_loss_sum(self):
        targets = np.array([0, 2])
        check_op(
            lambda t: F.nll_loss(F.log_softmax(t), targets, reduction="sum"),
            RNG.standard_normal((2, 5)),
        )

    def test_cross_entropy(self):
        targets = np.array([1, 3, 0])
        check_op(lambda t: F.cross_entropy(t, targets), RNG.standard_normal((3, 5)))


class TestCompositeGrads:
    def test_two_layer_mlp(self):
        w1 = Tensor(RNG.standard_normal((4, 8)))
        w2 = Tensor(RNG.standard_normal((8, 3)))
        targets = np.array([0, 1, 2])

        def net(t):
            h = ops.relu(t @ w1)
            return F.cross_entropy(h @ w2, targets)

        x = RNG.standard_normal((3, 4))
        check_op(net, x, rtol=1e-3, atol=1e-4)

    def test_diamond_dependency(self):
        """One tensor feeding two branches accumulates both gradients."""

        def net(t):
            return (t * t + t).sum()

        check_op(lambda t: t * t + t, RNG.standard_normal((3, 3)))
