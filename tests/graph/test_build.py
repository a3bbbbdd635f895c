"""Edge-list builder behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.build import (
    MAX_NODES,
    coalesce_edges,
    from_edge_index,
    remove_self_loops,
    to_undirected_edges,
)


class TestCoalesce:
    def test_removes_duplicates(self):
        src, dst = coalesce_edges([1, 1, 2], [0, 0, 0])
        assert len(src) == 2

    def test_sorted_by_dst_then_src(self):
        src, dst = coalesce_edges([3, 1, 2], [1, 0, 0])
        assert dst.tolist() == [0, 0, 1]
        assert src.tolist() == [1, 2, 3]

    def test_empty(self):
        src, dst = coalesce_edges([], [])
        assert len(src) == 0


class TestSelfLoops:
    def test_removed(self):
        src, dst = remove_self_loops([0, 1], [0, 2])
        assert src.tolist() == [1]
        assert dst.tolist() == [2]


class TestUndirected:
    def test_mirrors(self):
        src, dst = to_undirected_edges([0], [1])
        assert sorted(zip(src, dst)) == [(0, 1), (1, 0)]


class TestFromEdgeIndex:
    def test_infers_num_nodes(self):
        g = from_edge_index([0, 5], [1, 2])
        assert g.num_nodes == 6

    def test_explicit_num_nodes(self):
        g = from_edge_index([0], [1], 10)
        assert g.num_nodes == 10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_edge_index([0, 4], [1, 1], 3)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            from_edge_index([0, 1], [1])

    def test_undirected_flag(self):
        g = from_edge_index([0], [1], 2, undirected=True)
        assert g.num_edges == 2
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0]

    def test_no_self_loops_flag(self):
        g = from_edge_index([0, 1], [0, 0], 2, self_loops=False)
        assert g.num_edges == 1

    def test_coalesce_default(self):
        g = from_edge_index([1, 1], [0, 0], 2)
        assert g.num_edges == 1

    def test_keep_duplicates(self):
        g = from_edge_index([1, 1], [0, 0], 2, coalesce=False)
        assert g.num_edges == 2

    def test_empty_graph(self):
        g = from_edge_index([], [], 5)
        assert g.num_nodes == 5
        assert g.num_edges == 0


def lexsort_csr(src, dst, num_nodes=None, *, coalesce=True, undirected=False, self_loops=True):
    """Reference builder: mirror, drop loops, one two-key lexsort, dedupe."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if undirected:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if not self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if num_nodes is None:
        num_nodes = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    if coalesce and len(src):
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=num_nodes), out=indptr[1:])
    return indptr, src, dst


@st.composite
def edge_lists(draw):
    """Small-id edge lists, so duplicates and self loops are frequent."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=40))
    ids = st.lists(st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m)
    return n, np.array(draw(ids), dtype=np.int64), np.array(draw(ids), dtype=np.int64)


class TestLexsortOracle:
    @given(edge_lists(), st.booleans(), st.booleans(), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_from_edge_index(self, case, coalesce, undirected, self_loops, give_n):
        n, src, dst = case
        num_nodes = n if give_n else None
        flags = dict(coalesce=coalesce, undirected=undirected, self_loops=self_loops)
        g = from_edge_index(src, dst, num_nodes, **flags)
        indptr, indices, _ = lexsort_csr(src, dst, num_nodes, **flags)
        assert g.indptr.dtype == g.indices.dtype == np.int64
        np.testing.assert_array_equal(g.indptr, indptr)
        np.testing.assert_array_equal(g.indices, indices)

    @given(edge_lists())
    @settings(max_examples=200, deadline=None)
    def test_coalesce_edges(self, case):
        _, src, dst = case
        got_src, got_dst = coalesce_edges(src, dst)
        _, want_src, want_dst = lexsort_csr(src, dst, coalesce=True)
        np.testing.assert_array_equal(got_src, want_src)
        np.testing.assert_array_equal(got_dst, want_dst)

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_reverse_is_lexsort_of_flipped_edges(self, coalesce):
        rng = np.random.default_rng(5)
        src, dst = rng.integers(0, 50, 400), rng.integers(0, 50, 400)
        g = from_edge_index(src, dst, 50, coalesce=coalesce)
        rev = g.reverse()
        s, d = g.to_edge_index()
        indptr, indices, _ = lexsort_csr(d, s, 50, coalesce=False)
        np.testing.assert_array_equal(rev.indptr, indptr)
        np.testing.assert_array_equal(rev.indices, indices)


class TestKeyRange:
    def test_largest_ids_round_trip(self):
        top = MAX_NODES - 1
        src, dst = coalesce_edges([top, 0, top], [top, top, top])
        assert src.tolist() == [0, top]
        assert dst.tolist() == [top, top]

    def test_from_edge_index_rejects_overflowing_node_count(self):
        with pytest.raises(ValueError, match="MAX_NODES"):
            from_edge_index([0], [1], MAX_NODES + 1)

    def test_coalesce_rejects_overflowing_ids(self):
        with pytest.raises(ValueError, match="MAX_NODES"):
            coalesce_edges([0], [MAX_NODES])

    def test_coalesce_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            coalesce_edges([-1, 0], [0, 0])
