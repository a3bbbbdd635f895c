"""Determinism guarantees of the RNG utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import as_generator, derive_rng


class TestDeriveRng:
    def test_deterministic(self):
        a = derive_rng(42, "sampler", 3).integers(0, 1 << 30, 10)
        b = derive_rng(42, "sampler", 3).integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_streams_differ_by_name(self):
        a = derive_rng(42, "sampler").integers(0, 1 << 30, 10)
        b = derive_rng(42, "shuffle").integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    def test_streams_differ_by_rank(self):
        a = derive_rng(42, "sample", 0).integers(0, 1 << 30, 10)
        b = derive_rng(42, "sample", 1).integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    def test_streams_differ_by_seed(self):
        a = derive_rng(1, "x").integers(0, 1 << 30, 10)
        b = derive_rng(2, "x").integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_any_seed_valid(self, seed):
        rng = derive_rng(seed, "t", 7)
        assert 0 <= rng.random() < 1

    def test_string_and_int_parts_mix(self):
        rng = derive_rng(0, "a", 1, "b", 2)
        assert rng is not None


class TestAsGenerator:
    def test_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_from_int(self):
        a = as_generator(5).random(3)
        b = as_generator(5).random(3)
        assert np.array_equal(a, b)

    def test_from_none(self):
        assert as_generator(None) is not None


def fnv1a(text: str) -> int:
    h = 2166136261
    for ch in text.encode():
        h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
    return h


class TestDeriveRngKeys:
    """``derive_rng`` is ``default_rng`` over a fixed 32-bit key list."""

    @pytest.mark.parametrize(
        "seed, stream",
        [(0, ()), (42, ("sampler", 3)), (7, ("serve", "node", 12)), (1, (0, "x", 2**31))],
    )
    def test_equals_default_rng_of_the_keys(self, seed, stream):
        keys = [seed] + [fnv1a(p) if isinstance(p, str) else p for p in stream]
        want = np.random.default_rng(keys).integers(0, 1 << 30, 8)
        assert np.array_equal(derive_rng(seed, *stream).integers(0, 1 << 30, 8), want)

    def test_fnv1a_reference_values(self):
        assert fnv1a("") == 0x811C9DC5
        assert fnv1a("a") == 0xE40C292C

    def test_seed_is_masked_to_32_bits(self):
        a = derive_rng(5 + 2**32, "s").random(4)
        assert np.array_equal(a, derive_rng(5, "s").random(4))

    def test_negative_int_part_is_masked(self):
        a = derive_rng(0, -1).random(4)
        assert np.array_equal(a, derive_rng(0, 2**32 - 1).random(4))

    def test_string_part_differs_from_its_digits(self):
        assert not np.array_equal(derive_rng(0, "1").random(4), derive_rng(0, 1).random(4))
