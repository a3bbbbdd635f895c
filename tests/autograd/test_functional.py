"""Training loss and accuracy: closed forms, dtypes, reductions, edge cases."""

import numpy as np
import pytest

from repro.autograd.functional import accuracy, cross_entropy, log_softmax, nll_loss
from repro.autograd.tensor import Tensor

LOGITS = np.random.default_rng(0).standard_normal((6, 4))
TARGETS = np.array([0, 3, 1, 1, 2, 0])


def softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestAccuracy:
    @pytest.mark.parametrize("wrap", [Tensor, np.asarray], ids=["tensor", "ndarray"])
    def test_counts_argmax_hits(self, wrap):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0], [1.0, 4.0]])
        assert accuracy(wrap(logits), np.array([0, 1, 1, 1])) == pytest.approx(0.75)

    def test_tie_goes_to_the_lowest_class(self):
        assert accuracy(Tensor(np.array([[1.0, 1.0, 0.0]])), np.array([0])) == 1.0

    def test_perfect_and_all_wrong(self):
        logits = Tensor(np.eye(3))
        assert accuracy(logits, np.array([0, 1, 2])) == 1.0
        assert accuracy(logits, np.array([1, 2, 0])) == 0.0

    def test_returns_python_float(self):
        assert type(accuracy(Tensor(np.eye(2)), np.array([0, 1]))) is float

    def test_empty_batch_with_list_targets(self):
        assert accuracy(Tensor(np.zeros((0, 5))), []) == 0.0


class TestLogSoftmax:
    def test_closed_form(self):
        out = log_softmax(Tensor(LOGITS))
        np.testing.assert_allclose(out.data, np.log(softmax(LOGITS)), rtol=1e-12)

    def test_axis_zero(self):
        out = log_softmax(Tensor(LOGITS), axis=0)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=0), 1.0, rtol=1e-12)

    def test_row_shift_invariant(self):
        shifted = LOGITS + np.arange(6)[:, None] * 100.0
        np.testing.assert_allclose(
            log_softmax(Tensor(shifted)).data, log_softmax(Tensor(LOGITS)).data, atol=1e-10
        )

    def test_very_negative_logits_stay_finite(self):
        out = log_softmax(Tensor(np.array([[-1000.0, -1001.0]])))
        np.testing.assert_allclose(out.data, np.log(softmax(np.array([[0.0, -1.0]]))))


class TestDtypes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_log_softmax_keeps_dtype(self, dtype):
        t = Tensor(LOGITS.astype(dtype), requires_grad=True)
        out = log_softmax(t)
        out.sum().backward()
        assert out.data.dtype == dtype and t.grad.dtype == dtype

    @pytest.mark.parametrize("reduction", ["mean", "sum"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy_keeps_dtype(self, dtype, reduction):
        t = Tensor(LOGITS.astype(dtype), requires_grad=True)
        loss = cross_entropy(t, TARGETS, reduction=reduction)
        loss.backward()
        assert loss.data.dtype == dtype and t.grad.dtype == dtype


class TestNllLoss:
    def test_sum_is_n_times_mean(self):
        lp = log_softmax(Tensor(LOGITS))
        mean = nll_loss(lp, TARGETS).item()
        total = nll_loss(lp, TARGETS, reduction="sum").item()
        assert total == pytest.approx(len(TARGETS) * mean)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(ValueError, match="expects"):
            nll_loss(Tensor(np.zeros(3)), np.array([0, 1, 2]))

    def test_rejects_negative_target(self):
        with pytest.raises(ValueError, match="out of range"):
            nll_loss(Tensor(np.zeros((2, 3))), np.array([0, -1]))

    def test_gradient_is_one_hot(self):
        lp = Tensor(np.zeros((3, 2)), requires_grad=True)
        nll_loss(lp, np.array([1, 0, 1]), reduction="sum").backward()
        np.testing.assert_array_equal(lp.grad, [[0, -1], [-1, 0], [0, -1]])


class TestCrossEntropy:
    def test_value_closed_form(self):
        want = -np.log(softmax(LOGITS)[np.arange(6), TARGETS]).mean()
        assert cross_entropy(Tensor(LOGITS), TARGETS).item() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("reduction, scale", [("mean", 1 / 6), ("sum", 1.0)])
    def test_gradient_is_softmax_minus_one_hot(self, reduction, scale):
        t = Tensor(LOGITS.copy(), requires_grad=True)
        cross_entropy(t, TARGETS, reduction=reduction).backward()
        want = softmax(LOGITS)
        want[np.arange(6), TARGETS] -= 1.0
        np.testing.assert_allclose(t.grad, scale * want, rtol=1e-10, atol=1e-12)
