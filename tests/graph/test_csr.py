"""CSRGraph structural invariants, including hypothesis property tests."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.build import from_edge_index
from repro.graph.csr import CSRGraph


def small_graph():
    # edges into nodes: 0<-1, 0<-2, 1<-2, 3<-0
    return from_edge_index(np.array([1, 2, 2, 0]), np.array([0, 0, 1, 3]), 4)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=120))
    src = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=m, max_size=m)
    )
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


class TestConstruction:
    def test_basic_counts(self):
        g = small_graph()
        assert g.num_nodes == 4
        assert g.num_edges == 4

    def test_rejects_bad_indptr_start(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([0, 0]))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_arrays_read_only(self):
        g = small_graph()
        with pytest.raises(ValueError):
            g.indptr[0] = 1
        with pytest.raises(ValueError):
            g.indices[0] = 1

    def test_equality(self):
        assert small_graph() == small_graph()

    def test_repr_contains_counts(self):
        assert "4" in repr(small_graph())


class TestAccessors:
    def test_in_degree_all(self):
        g = small_graph()
        assert np.array_equal(g.in_degree(), [2, 1, 0, 1])

    def test_in_degree_subset(self):
        g = small_graph()
        assert np.array_equal(g.in_degree(np.array([0, 2])), [2, 0])

    def test_neighbors(self):
        g = small_graph()
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        assert g.neighbors(2).size == 0

    def test_gather_neighbors_matches_per_node(self):
        g = small_graph()
        nodes = np.array([0, 1, 2, 3])
        srcs, offsets = g.gather_neighbors(nodes)
        for i, v in enumerate(nodes):
            got = srcs[offsets[i] : offsets[i + 1]]
            assert np.array_equal(got, g.neighbors(v))

    def test_gather_neighbors_empty_frontier(self):
        g = small_graph()
        srcs, offsets = g.gather_neighbors(np.array([2]))
        assert srcs.size == 0
        assert np.array_equal(offsets, [0, 0])

    def test_edge_ids_cover_slices(self):
        g = small_graph()
        ids = g.edge_ids(np.array([0, 3]))
        assert sorted(ids.tolist()) == [0, 1, 3]

    def test_edge_ids_are_the_gathered_positions(self):
        # gather_neighbors reads indices through edge_ids: same flat
        # order, zero-degree rows and an empty batch included
        g = small_graph()
        for nodes in ([3, 2, 0, 2, 1], [2], []):
            nodes = np.array(nodes, dtype=np.int64)
            ids = g.edge_ids(nodes)
            srcs, offsets = g.gather_neighbors(nodes)
            assert ids.dtype == np.int64 and srcs.dtype == np.int64
            assert np.array_equal(g.indices[ids], srcs)
            assert np.array_equal(np.diff(offsets), g.in_degree(nodes))
            want = [np.arange(g.indptr[v], g.indptr[v + 1]) for v in nodes]
            assert np.array_equal(ids, np.concatenate(want + [np.empty(0, np.int64)]))


class TestDerivedGraphs:
    def test_to_edge_index_roundtrip(self):
        g = small_graph()
        src, dst = g.to_edge_index()
        g2 = from_edge_index(src, dst, g.num_nodes, coalesce=False)
        assert g == g2

    def test_reverse_twice_is_identity(self):
        g = small_graph()
        assert g.reverse().reverse() == g

    def test_reverse_is_memoised_and_read_only(self):
        g = small_graph()
        rev = g.reverse()
        assert g.reverse() is rev
        assert not rev.indptr.flags.writeable and not rev.indices.flags.writeable
        assert rev.reverse() == g

    def test_reverse_memo_on_trusted_parts(self):
        g = small_graph()
        g2 = CSRGraph.from_trusted_parts(g.indptr, g.indices)
        assert g2.reverse() == g.reverse()
        assert g2.reverse() is g2.reverse()

    def test_pickle_leaves_the_memo_behind(self):
        g = small_graph()
        plain = pickle.dumps(g)
        g.reverse()
        blob = pickle.dumps(g)
        assert len(blob) == len(plain)
        clone = pickle.loads(blob)
        assert clone == g
        assert clone._reverse is None
        assert clone.reverse() == g.reverse()
        assert clone.reverse() is not g.reverse()

    def test_reverse_swaps_degrees(self):
        g = small_graph()
        rev = g.reverse()
        src, dst = g.to_edge_index()
        out_deg = np.bincount(src, minlength=g.num_nodes)
        assert np.array_equal(rev.in_degree(), out_deg)

    def test_subgraph_keeps_internal_edges(self):
        g = small_graph()
        sub, nodes = g.subgraph(np.array([0, 1, 2]))
        # edges among {0,1,2}: 0<-1, 0<-2, 1<-2
        assert sub.num_edges == 3
        assert sub.num_nodes == 3

    def test_subgraph_relabels_locally(self):
        g = small_graph()
        sub, nodes = g.subgraph(np.array([3, 0]))
        # only edge 3<-0 survives; local ids: 3 -> 0, 0 -> 1
        assert sub.num_edges == 1
        assert sub.neighbors(0).tolist() == [1]

    def test_subgraph_rejects_duplicates(self):
        with pytest.raises(ValueError):
            small_graph().subgraph(np.array([0, 0]))

    def test_has_self_loops(self):
        g = from_edge_index(np.array([0]), np.array([0]), 1)
        assert g.has_self_loops()
        assert not small_graph().has_self_loops()


class TestProperties:
    @given(edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_preserves_edge_multiset(self, data):
        n, src, dst = data
        g = from_edge_index(src, dst, n, coalesce=False)
        s2, d2 = g.to_edge_index()
        assert sorted(zip(s2, d2)) == sorted(zip(src, dst))

    @given(edge_lists())
    @settings(max_examples=50, deadline=None)
    def test_invariants_always_hold(self, data):
        n, src, dst = data
        g = from_edge_index(src, dst, n)
        g.validate()
        assert g.indptr[-1] == g.num_edges
        assert np.all(np.diff(g.indptr) >= 0)
        assert int(g.in_degree().sum()) == g.num_edges

    @given(edge_lists())
    @settings(max_examples=30, deadline=None)
    def test_subgraph_edges_subset(self, data):
        n, src, dst = data
        g = from_edge_index(src, dst, n)
        take = np.arange(0, n, 2)
        sub, nodes = g.subgraph(take)
        s, d = sub.to_edge_index()
        full = set(zip(*g.to_edge_index()))
        for e_src, e_dst in zip(nodes[s], nodes[d]):
            assert (e_src, e_dst) in full
