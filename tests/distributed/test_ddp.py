"""Synchronous-SGD semantics: gradient averaging, batch-size equivalence."""

import numpy as np
import pytest

from repro.autograd.functional import cross_entropy
from repro.autograd.module import Linear
from repro.autograd.tensor import Tensor
from repro.distributed.ddp import average_gradients


def make_model(seed=0):
    return Linear(4, 3, rng=np.random.default_rng(seed))


def rank_gradients(model, x, y, chunks):
    """Each rank's ``[weight, bias]`` gradients, every rank run on ``model``."""
    out = []
    for sl in chunks:
        model.zero_grad()
        cross_entropy(model(Tensor(x[sl])), y[sl]).backward()
        out.append([p.grad for p in model.parameters()])
    return out


class TestAverageGradients:
    def test_mean_of_grads(self):
        model = make_model()
        average_gradients(
            model.parameters(),
            [
                [np.ones((4, 3), dtype=np.float32), np.zeros(3, dtype=np.float32)],
                [3 * np.ones((4, 3), dtype=np.float32), np.zeros(3, dtype=np.float32)],
            ],
        )
        np.testing.assert_allclose(model.weight.grad, 2.0)
        np.testing.assert_allclose(model.bias.grad, 0.0)
        assert model.weight.grad.dtype == model.weight.data.dtype

    def test_none_counts_as_zero(self):
        model = make_model()
        average_gradients(
            model.parameters(),
            [[np.full((4, 3), 4.0, dtype=np.float32), None], [None, None]],
        )
        np.testing.assert_allclose(model.weight.grad, 2.0)

    def test_all_none_stays_none(self):
        model = make_model()
        model.weight.grad = np.ones((4, 3), dtype=np.float32)  # a later rank's leftover
        average_gradients(model.parameters(), [[None, None], [None, None]])
        assert model.weight.grad is None
        assert model.bias.grad is None

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            average_gradients(make_model().parameters(), [])


class TestBatchSizeEquivalence:
    """Paper Sec. IV-B2: n ranks at batch b/n with gradient averaging is
    algorithmically equivalent to one process at batch b."""

    def test_gradient_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=8)

        # single process, full batch
        single = make_model(seed=1)
        loss = cross_entropy(single(Tensor(x)), y)
        single.zero_grad()
        loss.backward()
        ref = single.weight.grad.copy()

        # two ranks, half batches each, averaged
        model = make_model(seed=1)
        grads = rank_gradients(model, x, y, [slice(0, 4), slice(4, 8)])
        average_gradients(model.parameters(), grads)
        np.testing.assert_allclose(model.weight.grad, ref, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_identity_for_any_rank_count(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((16, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=16)
        single = make_model(seed=2)
        loss = cross_entropy(single(Tensor(x)), y)
        loss.backward()
        ref = single.weight.grad.copy()

        model = make_model(seed=2)
        chunk = 16 // n
        grads = rank_gradients(
            model, x, y, [slice(r * chunk, (r + 1) * chunk) for r in range(n)]
        )
        average_gradients(model.parameters(), grads)
        np.testing.assert_allclose(model.weight.grad, ref, rtol=1e-3, atol=1e-5)
