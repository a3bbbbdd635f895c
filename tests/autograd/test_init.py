"""Parameter initialisers: bounds, dtype, shape checks, seeding."""

import numpy as np
import pytest

from repro.autograd import init

SHAPES = [(1, 1), (4, 8), (64, 3), (256, 256)]


@pytest.mark.parametrize("shape", SHAPES)
def test_glorot_within_bound(shape):
    w = init.glorot_uniform(shape, rng=0)
    a = np.sqrt(6.0 / sum(shape))
    assert w.shape == shape and w.dtype == np.float32
    assert np.all(np.abs(w) <= np.float32(a))


@pytest.mark.parametrize("shape", SHAPES)
def test_kaiming_within_bound(shape):
    w = init.kaiming_uniform(shape, rng=0)
    a = np.sqrt(6.0 / shape[0])
    assert w.shape == shape and w.dtype == np.float32
    assert np.all(np.abs(w) <= np.float32(a))


def test_glorot_gain_scales_the_draw():
    base = init.glorot_uniform((16, 16), rng=3)
    scaled = init.glorot_uniform((16, 16), gain=2.0, rng=3)
    np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-6)


def test_glorot_fills_its_range():
    w = init.glorot_uniform((200, 200), rng=1)
    a = np.sqrt(6.0 / 400)
    assert w.max() > 0.95 * a and w.min() < -0.95 * a


@pytest.mark.parametrize("fn", [init.glorot_uniform, init.kaiming_uniform])
@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_rejects_non_matrix_shapes(fn, shape):
    with pytest.raises(ValueError, match="2-D"):
        fn(shape)


@pytest.mark.parametrize(
    "fn", [init.glorot_uniform, init.kaiming_uniform, init.normal], ids=["glorot", "kaiming", "normal"]
)
def test_same_seed_same_values(fn):
    np.testing.assert_array_equal(fn((5, 7), rng=11), fn((5, 7), rng=11))
    assert not np.array_equal(fn((5, 7), rng=11), fn((5, 7), rng=12))


def test_generator_is_advanced_not_copied():
    rng = np.random.default_rng(0)
    a = init.glorot_uniform((3, 3), rng=rng)
    b = init.glorot_uniform((3, 3), rng=rng)
    assert not np.array_equal(a, b)


def test_normal_std_and_dtype():
    w = init.normal((400, 400), std=0.5, rng=2)
    assert w.dtype == np.float32
    assert abs(float(w.std()) - 0.5) < 0.01
    assert abs(float(w.mean())) < 0.01


@pytest.mark.parametrize("shape", [(3,), (2, 5), (0, 4)])
def test_zeros(shape):
    z = init.zeros(shape)
    assert z.shape == shape and z.dtype == np.float32
    assert not z.any()
