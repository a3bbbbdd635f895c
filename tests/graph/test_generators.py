"""Synthetic graph generator properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import erdos_renyi_graph, powerlaw_graph, rmat_edges
from repro.utils.rng import derive_rng


class TestRmat:
    def test_edge_count(self):
        src, dst = rmat_edges(8, 4.0, rng=derive_rng(0))
        assert len(src) == 4 * 256
        assert len(dst) == len(src)

    def test_endpoints_in_range(self):
        src, dst = rmat_edges(8, 4.0, rng=derive_rng(0))
        for arr in (src, dst):
            assert arr.min() >= 0
            assert arr.max() < 256

    def test_deterministic(self):
        a = rmat_edges(8, 2.0, rng=derive_rng(1))
        b = rmat_edges(8, 2.0, rng=derive_rng(1))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_heavy_tail(self):
        """RMAT with Graph500 params must produce a skewed degree profile."""
        src, dst = rmat_edges(12, 8.0, rng=derive_rng(0))
        deg = np.bincount(dst, minlength=1 << 12)
        assert deg.max() > 10 * max(deg.mean(), 1.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            rmat_edges(0, 4.0)

    def test_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            rmat_edges(4, 4.0, a=0.9, b=0.2, c=0.2)

    @given(st.integers(min_value=2, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_any_scale_valid(self, scale):
        src, dst = rmat_edges(scale, 1.0, rng=derive_rng(0))
        assert src.max(initial=0) < (1 << scale)


def rmat_edges_reference(scale, edge_factor, *, a=0.57, b=0.19, c=0.19, rng=None):
    """The original level loop: fresh arrays and an np.where threshold per level."""
    rng = derive_rng(0) if rng is None else rng
    d = 1.0 - a - b - c
    n_edges = int(round(edge_factor * (1 << scale)))
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    p_right = b + d
    for _ in range(scale):
        u = rng.random(n_edges)
        v = rng.random(n_edges)
        src_bit = (u < p_right).astype(np.int64)
        p_bot_given = np.where(src_bit == 1, d / max(p_right, 1e-12), c / max(a + c, 1e-12))
        dst_bit = (v < p_bot_given).astype(np.int64)
        src = (src << 1) | src_bit
        dst = (dst << 1) | dst_bit
    perm = rng.permutation(1 << scale)
    return perm[src], perm[dst]


class TestRmatOracle:
    @pytest.mark.parametrize("scale", [1, 3, 8, 12])
    @pytest.mark.parametrize(
        "probs", [(0.57, 0.19, 0.19), (0.25, 0.25, 0.25), (0.45, 0.3, 0.1), (0.6, 0.0, 0.4), (0.0, 0.5, 0.0)]
    )
    def test_matches_level_loop(self, scale, probs):
        a, b, c = probs
        rng_a, rng_b = derive_rng(scale, "rmat"), derive_rng(scale, "rmat")
        got = rmat_edges(scale, 3.5, a=a, b=b, c=c, rng=rng_a)
        want = rmat_edges_reference(scale, 3.5, a=a, b=b, c=c, rng=rng_b)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            np.testing.assert_array_equal(g, w)
        assert rng_a.random() == rng_b.random()

    def test_zero_edges(self):
        src, dst = rmat_edges(4, 0.0, rng=derive_rng(0))
        assert len(src) == len(dst) == 0


class TestPowerlaw:
    def test_basic_shape(self):
        g = powerlaw_graph(500, 6.0, rng=derive_rng(0))
        assert g.num_nodes == 500
        assert g.num_edges > 0
        assert not g.has_self_loops()

    def test_undirected(self):
        g = powerlaw_graph(200, 4.0, rng=derive_rng(1))
        src, dst = g.to_edge_index()
        edges = set(zip(src.tolist(), dst.tolist()))
        assert all((d, s) in edges for s, d in edges)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            powerlaw_graph(1, 2.0)

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            powerlaw_graph(10, 0.0)


class TestErdosRenyi:
    def test_average_degree_close(self):
        g = erdos_renyi_graph(2000, 10.0, rng=derive_rng(0))
        # undirected edges are stored in both directions, so mean in-degree
        # equals the target average degree (minus duplicate/self-loop loss)
        avg = g.num_edges / g.num_nodes
        assert 8.0 < avg < 10.5

    def test_deterministic(self):
        a = erdos_renyi_graph(100, 4.0, rng=derive_rng(2))
        b = erdos_renyi_graph(100, 4.0, rng=derive_rng(2))
        assert a == b
