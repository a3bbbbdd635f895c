"""Module system: parameter registration, state dicts, modes."""

import numpy as np
import pytest

from repro.autograd.module import Linear, Module, Parameter, Sequential
from repro.autograd.tensor import Tensor


class TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=np.random.default_rng(0))
        self.fc2 = Linear(8, 2, rng=np.random.default_rng(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu())


class TestParameterRegistration:
    def test_named_parameters_nested(self):
        net = TwoLayer()
        names = [n for n, _ in net.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_num_parameters(self):
        net = TwoLayer()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_zero_grad_clears_all(self):
        net = TwoLayer()
        out = net(Tensor(np.ones((3, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_parameter_always_requires_grad(self):
        from repro.autograd.tensor import no_grad

        with no_grad():
            p = Parameter(np.ones(3))
        assert p.requires_grad


class TestLinear:
    def test_forward_shape(self):
        lin = Linear(4, 6, rng=np.random.default_rng(0))
        out = lin(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 6)

    def test_no_bias(self):
        lin = Linear(4, 6, bias=False, rng=np.random.default_rng(0))
        assert lin.bias is None
        names = [n for n, _ in lin.named_parameters()]
        assert names == ["weight"]

    def test_affine_math(self):
        lin = Linear(2, 2, rng=np.random.default_rng(0))
        lin.weight.data = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        lin.bias.data = np.array([1.0, -1.0], dtype=np.float32)
        out = lin(Tensor(np.array([[2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[3.0, 2.0]])

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 5)


class TestStateDict:
    def test_roundtrip(self):
        a, b = TwoLayer(), TwoLayer()
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_is_a_copy(self):
        net = TwoLayer()
        sd = net.state_dict()
        sd["fc1.weight"][:] = 0.0
        assert not np.all(net.fc1.weight.data == 0.0)

    def test_missing_key_rejected(self):
        net = TwoLayer()
        sd = net.state_dict()
        del sd["fc1.bias"]
        with pytest.raises(KeyError):
            net.load_state_dict(sd)

    def test_unexpected_key_rejected(self):
        net = TwoLayer()
        sd = net.state_dict()
        sd["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(sd)

    def test_shape_mismatch_rejected(self):
        net = TwoLayer()
        sd = net.state_dict()
        sd["fc1.weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            net.load_state_dict(sd)


class TestModes:
    def test_train_eval_propagates(self):
        net = TwoLayer()
        net.eval()
        assert not net.training
        assert not net.fc1.training
        net.train()
        assert net.fc2.training


class TestSequential:
    def test_chains(self):
        seq = Sequential(
            Linear(4, 8, rng=np.random.default_rng(0)),
            Linear(8, 2, rng=np.random.default_rng(1)),
        )
        out = seq(Tensor(np.ones((3, 4))))
        assert out.shape == (3, 2)
        assert len(seq.parameters()) == 4
