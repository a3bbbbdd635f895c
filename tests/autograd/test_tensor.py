"""Tensor mechanics: tape construction, backward, no_grad."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor, is_grad_enabled, no_grad, unbroadcast


class TestConstruction:
    def test_int_data_becomes_float32(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.array([1.0, 2.0], dtype=np.float64))
        assert t.dtype == np.float64

    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert float(Tensor.ones(2).sum().data) == 2.0

    def test_shape_properties(self):
        t = Tensor(np.zeros((2, 5)))
        assert t.shape == (2, 5)
        assert t.ndim == 2
        assert t.size == 10
        assert len(t) == 2

    def test_item_scalar_only(self):
        assert Tensor(np.array(3.0)).item() == 3.0

    def test_detach_drops_grad_tracking(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad


class TestBackward:
    def test_leaf_gets_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, [2, 2, 2])

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).sum().backward()
        (t * 2.0).sum().backward()
        np.testing.assert_allclose(t.grad, [4, 4, 4])

    def test_zero_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_nonscalar_backward_requires_grad_arg(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_explicit_upstream_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2.0).backward(np.array([1.0, 0.0, 2.0]))
        np.testing.assert_allclose(t.grad, [2, 0, 4])

    def test_no_grad_without_requires(self):
        t = Tensor(np.ones(3))
        out = (t * 2.0).sum()
        out.backward()
        assert t.grad is None

    def test_shared_subexpression_counted_once_per_path(self):
        t = Tensor(np.array([3.0]), requires_grad=True)
        y = t * t  # dy/dt = 2t = 6
        (y + y).sum().backward()  # d(2y)/dt = 4t = 12
        np.testing.assert_allclose(t.grad, [12.0])

    def test_deep_chain(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        x = t
        for _ in range(50):
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(t.grad, [1.0])


class TestConstantsStayOffTheTape:
    """Backward must not evaluate the VJP of an operand that needs no gradient."""

    def test_constant_operand_is_not_recorded(self):
        from repro.autograd import ops

        t = Tensor(np.ones((4, 3)), requires_grad=True)
        const = Tensor(np.full((4, 1), 2.0))
        for out in (ops.mul(t, const), ops.mul(const, t), ops.add(ops.relu(t), const)):
            assert [p for p, _ in out._parents] != []
            assert all(p.requires_grad or p._parents for p, _ in out._parents)
        assert ops.mul(const, const)._parents == []

    def test_constant_vjp_is_never_called(self):
        from repro.autograd import ops

        def forbidden(g):
            raise AssertionError("VJP of a constant was evaluated")

        t = Tensor(np.ones(3), requires_grad=True)
        out = ops._make(
            t.data * 2.0, [(t, lambda g: g * 2.0), (Tensor(np.ones(3)), forbidden)], "probe"
        )
        out.sum().backward()
        np.testing.assert_array_equal(t.grad, [2.0, 2.0, 2.0])


class TestNoGrad:
    def test_context_disables_tape(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = (t * 2.0).sum()
        out.backward()  # no tape: nothing happens
        assert t.grad is None

    def test_flag_restored(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_flag_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sums_leading_dims(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 4.0))

    def test_sums_size1_dims(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        np.testing.assert_allclose(out, np.full((2, 1), 3.0))

    def test_scalar_target(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, ())
        assert out == pytest.approx(6.0)


class TestInferenceMode:
    def test_skips_tape_and_restores_flags(self):
        from repro.autograd.tensor import inference_mode, is_inference_mode

        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with inference_mode():
            assert is_inference_mode() and not is_grad_enabled()
            out = (a @ a).relu().sum()
            assert out._parents == [] and not out.requires_grad
        assert not is_inference_mode() and is_grad_enabled()

    def test_flags_restored_on_exception(self):
        from repro.autograd.tensor import inference_mode, is_inference_mode

        with pytest.raises(RuntimeError):
            with inference_mode():
                raise RuntimeError("boom")
        assert is_grad_enabled() and not is_inference_mode()

    def test_values_bit_identical_to_grad_forward(self):
        from repro.autograd.tensor import inference_mode

        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3)).astype(np.float32)
        w = rng.standard_normal((3, 4)).astype(np.float32)

        def forward():
            t = Tensor(x, requires_grad=True) @ Tensor(w, requires_grad=True)
            return (t.relu().sum(axis=0) * 2.0).data

        with_tape = forward()
        with inference_mode():
            without_tape = forward()
        np.testing.assert_array_equal(with_tape, without_tape)

    def test_nests_inside_no_grad(self):
        from repro.autograd.tensor import inference_mode, is_inference_mode

        with no_grad():
            with inference_mode():
                assert is_inference_mode()
            assert not is_grad_enabled() and not is_inference_mode()
