"""Forward-value checks and validation for primitive ops."""

import numpy as np
import pytest

from repro.autograd import ops
from repro.autograd.functional import accuracy, log_softmax, nll_loss
from repro.autograd.tensor import Tensor


class TestForwardValues:
    def test_add_broadcast(self):
        out = ops.add(Tensor(np.ones((2, 3))), Tensor(np.arange(3)))
        np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_matmul(self):
        a = Tensor(np.array([[1.0, 2.0]]))
        b = Tensor(np.array([[3.0], [4.0]]))
        assert ops.matmul(a, b).data.item() == 11.0

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            ops.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_relu_clamps(self):
        out = ops.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("dtype,uint", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_relu_bits_equal_the_where_form(self, dtype, uint):
        # the masked-select form relu replaced is the oracle: same bits
        # for signed zeros, infinities, NaN (maps to +0.0), denormals
        # and ordinary values, checked on the raw words
        tiny = np.finfo(dtype).smallest_subnormal
        specials = np.array(
            [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, tiny, -tiny,
             np.finfo(dtype).tiny, -np.finfo(dtype).tiny, 1.5, -1.5],
            dtype=dtype,
        )
        rng = np.random.default_rng(0)
        x = np.concatenate([specials, rng.standard_normal(500).astype(dtype)])
        x = rng.permutation(x).reshape(8, -1)
        for arr in (x, x.T, x[:, ::2]):
            t = Tensor(arr, requires_grad=True)
            out = ops.relu(t)
            want = np.where(arr > 0, arr, 0.0).astype(dtype)
            assert out.data.dtype == want.dtype and out.data.flags.c_contiguous
            np.testing.assert_array_equal(out.data.view(uint), want.view(uint))
            # the backward still gates on the mask
            out.backward(np.ones_like(out.data))
            np.testing.assert_array_equal(t.grad, (arr > 0).astype(dtype))

    def test_concat_axis(self):
        a, b = Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 3)))
        assert ops.concat([a, b], axis=-1).shape == (2, 5)

    def test_concat_empty_list_rejected(self):
        with pytest.raises(ValueError):
            ops.concat([])

    def test_gather_rows_selects(self):
        t = Tensor(np.arange(6).reshape(3, 2))
        out = ops.gather_rows(t, np.array([2, 0]))
        np.testing.assert_allclose(out.data, [[4, 5], [0, 1]])

    def test_gather_rows_backward_accumulates(self):
        t = Tensor(np.zeros((3, 2)), requires_grad=True)
        ops.gather_rows(t, np.array([1, 1, 0])).backward(np.ones((3, 2)))
        np.testing.assert_allclose(t.grad, [[1, 1], [2, 2], [0, 0]])

    def test_operator_sugar(self):
        t = Tensor(np.array([2.0]))
        assert (t + 1).data.item() == 3.0
        assert (1 + t).data.item() == 3.0
        assert (t - 1).data.item() == 1.0
        assert (1 - t).data.item() == -1.0
        assert (t * 3).data.item() == 6.0
        assert (t / 2).data.item() == 1.0
        assert (-t).data.item() == -2.0
        assert (t**2).data.item() == 4.0


class TestDropout:
    def test_eval_mode_identity(self):
        t = Tensor(np.ones((4, 4)))
        out = ops.dropout(t, 0.5, training=False)
        assert out is t

    def test_p_zero_identity(self):
        t = Tensor(np.ones((4, 4)))
        assert ops.dropout(t, 0.0) is t

    def test_scaling_preserves_expectation(self):
        t = Tensor(np.ones((200, 200)))
        out = ops.dropout(t, 0.5, rng=np.random.default_rng(0))
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_deterministic_given_rng(self):
        t = Tensor(np.ones((10, 10)))
        a = ops.dropout(t, 0.3, rng=np.random.default_rng(1)).data
        b = ops.dropout(t, 0.3, rng=np.random.default_rng(1)).data
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            ops.dropout(Tensor(np.ones(3)), 1.0)


class TestLossForward:
    def test_log_softmax_normalised(self):
        out = log_softmax(Tensor(np.random.default_rng(0).standard_normal((4, 6))))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=1), 1.0, rtol=1e-5)

    def test_log_softmax_stable_for_large_logits(self):
        out = log_softmax(Tensor(np.array([[1000.0, 1000.0]])))
        assert np.all(np.isfinite(out.data))

    def test_nll_known_value(self):
        lp = Tensor(np.log(np.array([[0.25, 0.75], [0.5, 0.5]], dtype=np.float64)))
        loss = nll_loss(lp, np.array([1, 0]))
        assert loss.item() == pytest.approx(-(np.log(0.75) + np.log(0.5)) / 2)

    def test_nll_rejects_bad_targets(self):
        lp = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            nll_loss(lp, np.array([0, 5]))

    def test_nll_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            nll_loss(Tensor(np.zeros((2, 3))), np.array([0]))

    def test_nll_rejects_unknown_reduction(self):
        with pytest.raises(ValueError):
            nll_loss(Tensor(np.zeros((2, 3))), np.array([0, 1]), reduction="max")

    def test_accuracy(self):
        logits = Tensor(np.array([[2.0, 1.0], [0.0, 3.0], [5.0, 0.0]]))
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy(Tensor(np.zeros((0, 3))), np.array([], dtype=np.int64)) == 0.0
