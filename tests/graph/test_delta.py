"""Streaming graph deltas: fragments, the layered view, reachability.

The invariant everything here leans on: a :class:`LayeredCSR` must be
*observationally identical* to the frozen CSR it would materialise to —
same degrees, same neighbor lists in the same order (base slice first,
then each fragment's slice in publication order), same induced
subgraphs.  Samplers consume adjacency in that order, so order parity is
what makes post-delta predictions bit-identical to a cold engine on the
merged graph.
"""

import numpy as np
import pytest

from repro.graph.build import from_edge_index
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.graph.delta import (
    DeltaFragment,
    GraphDelta,
    LayeredCSR,
    materialize_dataset,
    reverse_reachable,
)
from repro.graph.shm import SharedGraphStore
from repro.utils.rng import derive_rng


def random_graph(num_nodes=64, num_edges=256, seed=0):
    rng = derive_rng(seed, "delta-test-graph")
    src = rng.integers(0, num_nodes, size=num_edges).astype(np.int64)
    dst = rng.integers(0, num_nodes, size=num_edges).astype(np.int64)
    return from_edge_index(src, dst, num_nodes, coalesce=False)


def random_delta(num_nodes, num_edges=32, *, new_nodes=0, feature_dim=4, seed=1):
    rng = derive_rng(seed, "delta-test-delta")
    total = num_nodes + new_nodes
    src = rng.integers(0, num_nodes, size=num_edges).astype(np.int64)
    dst = rng.integers(0, total, size=num_edges).astype(np.int64)
    if new_nodes:
        # guarantee every fresh node actually appears as a destination
        dst[:new_nodes] = np.arange(num_nodes, total, dtype=np.int64)
        features = rng.standard_normal((new_nodes, feature_dim)).astype(np.float32)
        labels = np.zeros(new_nodes, dtype=np.int64)
    else:
        features = None
        labels = None
    return GraphDelta(src=src, dst=dst, features=features, labels=labels)


def make_fragment(graph, delta, feature_dim=4):
    return DeltaFragment.from_delta(
        delta, num_nodes=graph.num_nodes, feature_dim=feature_dim
    )


class TestGraphDelta:
    def test_num_new_nodes(self):
        d = random_delta(32, new_nodes=2)
        assert d.num_new_nodes == 2
        assert random_delta(32).num_new_nodes == 0

    def test_length_mismatch_rejected(self):
        delta = GraphDelta(src=np.zeros(3, dtype=np.int64), dst=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="equal length"):
            DeltaFragment.from_delta(delta, num_nodes=8, feature_dim=2)

    def test_empty_delta_rejected(self):
        empty = np.zeros(0, dtype=np.int64)
        delta = GraphDelta(src=empty, dst=empty)
        with pytest.raises(ValueError, match="empty delta"):
            DeltaFragment.from_delta(delta, num_nodes=8, feature_dim=2)

    def test_labels_without_features_rejected(self):
        delta = GraphDelta(
            src=np.zeros(1, dtype=np.int64),
            dst=np.zeros(1, dtype=np.int64),
            labels=np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="labels"):
            DeltaFragment.from_delta(delta, num_nodes=8, feature_dim=2)


class TestDeltaFragment:
    def test_rows_sorted_and_consistent(self):
        g = random_graph()
        frag = make_fragment(g, random_delta(g.num_nodes))
        assert np.all(np.diff(frag.rows) > 0)  # unique, ascending destinations
        assert frag.indptr[0] == 0
        assert frag.indptr[-1] == len(frag.indices)
        assert len(frag.indptr) == len(frag.rows) + 1

    def test_preserves_edge_order_within_row(self):
        # two edges into the same destination must keep submission order
        delta = GraphDelta(
            src=np.array([5, 3, 7], dtype=np.int64),
            dst=np.array([1, 0, 1], dtype=np.int64),
        )
        frag = DeltaFragment.from_delta(delta, num_nodes=8, feature_dim=2)
        np.testing.assert_array_equal(frag.rows, [0, 1])
        np.testing.assert_array_equal(frag.indices, [3, 5, 7])

    def test_out_of_range_source_rejected(self):
        delta = GraphDelta(
            src=np.array([99], dtype=np.int64), dst=np.array([0], dtype=np.int64)
        )
        with pytest.raises(ValueError, match="out of range"):
            DeltaFragment.from_delta(delta, num_nodes=8, feature_dim=2)

    def test_new_node_needs_features(self):
        # an edge into node 8 of an 8-node graph only works if the delta
        # also appends that node (features define the new id range)
        delta = GraphDelta(
            src=np.array([0], dtype=np.int64), dst=np.array([8], dtype=np.int64)
        )
        with pytest.raises(ValueError, match="out of range"):
            DeltaFragment.from_delta(delta, num_nodes=8, feature_dim=2)

    def test_array_round_trip(self):
        g = random_graph()
        frag = make_fragment(g, random_delta(g.num_nodes, new_nodes=1))
        clone = DeltaFragment.from_arrays(frag.to_arrays())
        np.testing.assert_array_equal(clone.rows, frag.rows)
        np.testing.assert_array_equal(clone.indptr, frag.indptr)
        np.testing.assert_array_equal(clone.indices, frag.indices)
        np.testing.assert_array_equal(clone.features, frag.features)
        assert clone.num_nodes_after == frag.num_nodes_after


class TestLayeredCSR:
    @pytest.fixture()
    def stacked(self):
        g = random_graph()
        frags = [
            make_fragment(g, random_delta(g.num_nodes, seed=1)),
        ]
        frags.append(
            DeltaFragment.from_delta(
                random_delta(g.num_nodes, new_nodes=2, seed=2),
                num_nodes=g.num_nodes,
                feature_dim=4,
            )
        )
        return g, LayeredCSR(g, frags)

    def test_requires_a_fragment(self):
        g = random_graph()
        with pytest.raises(ValueError, match="fragment"):
            LayeredCSR(g, [])

    def test_counts(self, stacked):
        g, view = stacked
        frags = view.fragments
        assert view.num_nodes == g.num_nodes + 2
        assert view.num_edges == g.num_edges + sum(len(f.indices) for f in frags)
        assert view.generation == 2

    def test_matches_materialized(self, stacked):
        g, view = stacked
        frozen = view.materialize()
        assert frozen.num_nodes == view.num_nodes
        assert frozen.num_edges == view.num_edges
        np.testing.assert_array_equal(view.in_degree(), frozen.in_degree())
        nodes = np.arange(view.num_nodes, dtype=np.int64)
        flat, offsets = view.gather_neighbors(nodes)
        flat_f, offsets_f = frozen.gather_neighbors(nodes)
        np.testing.assert_array_equal(offsets, offsets_f)
        np.testing.assert_array_equal(flat, flat_f)  # exact merged ORDER
        for v in [0, 1, g.num_nodes - 1, view.num_nodes - 1]:
            np.testing.assert_array_equal(view.neighbors(v), frozen.neighbors(v))

    def test_subgraph_matches_materialized(self, stacked):
        g, view = stacked
        frozen = view.materialize()
        rng = derive_rng(3, "delta-test-sub")
        nodes = rng.choice(view.num_nodes, size=16, replace=False).astype(np.int64)
        sub_v, map_v = view.subgraph(nodes)
        sub_f, map_f = frozen.subgraph(nodes)
        np.testing.assert_array_equal(map_v, map_f)
        np.testing.assert_array_equal(sub_v.indptr, sub_f.indptr)
        np.testing.assert_array_equal(sub_v.indices, sub_f.indices)

    def test_base_untouched(self, stacked):
        g, view = stacked
        # layering is pure overlay: the frozen base never changes
        assert view.base is g
        assert not g.indptr.flags.writeable


def streamed_view(graph, num_fragments, seed=7):
    """``graph`` under a stream of small deltas, every third one appending
    two nodes (the second of which gets no in-edge: a zero-degree row
    past the base id range)."""
    frags, n = [], graph.num_nodes
    for i in range(num_fragments):
        rng = derive_rng(seed, "delta-test-stream", i)
        new = 2 if i % 3 == 0 else 0
        dst = rng.integers(0, n, size=6).astype(np.int64)
        if new:
            dst[0] = n
        delta = GraphDelta(
            src=rng.integers(0, n + new, size=6).astype(np.int64),
            dst=dst,
            features=np.zeros((new, 4), dtype=np.float32) if new else None,
        )
        frags.append(DeltaFragment.from_delta(delta, num_nodes=n, feature_dim=4))
        n += new
    return LayeredCSR(graph, frags)


def assert_gather_edges_exact(view, seed=0):
    """``gather_edges`` == the full gather indexed at the chosen places."""
    rng = derive_rng(seed, "delta-test-gather-edges")
    # every node, shuffled, some twice: zero-degree and appended rows included
    nodes = rng.permutation(np.concatenate([np.arange(view.num_nodes), np.arange(5)]))
    flat, offsets = view.gather_neighbors(nodes)
    assert (np.diff(offsets) == 0).any()
    # any places, in any order, repeats allowed — plus every place once
    places = np.concatenate([rng.integers(0, len(flat), size=300), np.arange(len(flat))])
    rows = np.searchsorted(offsets, places, side="right") - 1
    got = view.gather_edges(nodes, rows, places - offsets[rows])
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, flat[places])
    none = np.empty(0, dtype=np.int64)
    assert view.gather_edges(nodes, none, none).shape == (0,)


class TestGatherEdges:
    def test_frozen_csr(self):
        assert_gather_edges_exact(random_graph(num_nodes=96))

    @pytest.mark.parametrize("num_fragments", [1, 3, 48])
    def test_layered_view(self, num_fragments):
        view = streamed_view(random_graph(num_nodes=96), num_fragments)
        assert view.generation == num_fragments
        assert view.num_nodes > view.base.num_nodes  # appended rows exist
        assert_gather_edges_exact(view)
        # the folded delta layer keeps fragment order: every node's list
        # is its base slice, then its slice of each fragment in turn
        flat, offsets = view.gather_neighbors(np.arange(view.num_nodes, dtype=np.int64))
        for v in range(view.num_nodes):
            want = [view.base.neighbors(v)] if v < view.base.num_nodes else []
            for frag in view.fragments:
                hit = np.flatnonzero(frag.rows == v)
                if len(hit):
                    want.append(frag.indices[frag.indptr[hit[0]] : frag.indptr[hit[0] + 1]])
            want = np.concatenate(want + [np.empty(0, np.int64)])
            np.testing.assert_array_equal(flat[offsets[v] : offsets[v + 1]], want)
            np.testing.assert_array_equal(view.neighbors(v), want)
        np.testing.assert_array_equal(view.in_degree(), np.diff(offsets))

    def test_shared_store_views(self):
        ds = load_dataset("ogbn-products", seed=0, scale_override=8)
        with SharedGraphStore.from_dataset(ds) as store:
            assert isinstance(store.graph, CSRGraph)
            assert_gather_edges_exact(store.graph)
            for i in range(3):
                rng = derive_rng(i, "delta-test-store")
                store.apply_delta(
                    GraphDelta(
                        src=rng.integers(0, ds.graph.num_nodes, size=8),
                        dst=rng.integers(0, ds.graph.num_nodes, size=8),
                    )
                )
            assert isinstance(store.graph, LayeredCSR)
            assert_gather_edges_exact(store.graph)


def appending_view(graph, num_fragments, seed):
    """``graph`` under ``num_fragments`` random deltas; most append 1-3
    nodes, with edges between appended nodes, from them into the base and
    from the base into them."""
    frags, n = [], graph.num_nodes
    for i in range(num_fragments):
        rng = derive_rng(seed, "delta-test-append", i)
        new = int(rng.integers(0, 4)) if i else 3
        total = n + new
        src = rng.integers(0, total, size=5).astype(np.int64)
        dst = rng.integers(0, total, size=5).astype(np.int64)
        if new:
            fresh = np.arange(n, total, dtype=np.int64)
            src = np.concatenate([src, fresh, [fresh[0]], rng.integers(0, n, size=1)])
            dst = np.concatenate([dst, fresh[::-1], rng.integers(0, n, size=1), [fresh[-1]]])
        delta = GraphDelta(
            src=src,
            dst=dst,
            features=np.zeros((new, 4), dtype=np.float32) if new else None,
        )
        frags.append(DeltaFragment.from_delta(delta, num_nodes=n, feature_dim=4))
        n = total
    return LayeredCSR(graph, frags)


def bfs_reach(graph, seeds, hops):
    """Reference reach: breadth-first over the frozen graph's edges, read
    source to destination from its edge list."""
    src, dst = graph.to_edge_index()
    out = [[] for _ in range(graph.num_nodes)]
    for u, v in zip(src.tolist(), dst.tolist()):
        out[u].append(v)
    seen = {int(s) for s in seeds}
    frontier = set(seen)
    for _ in range(hops):
        frontier = {v for u in frontier for v in out[u]} - seen
        seen |= frontier
    return np.array(sorted(seen), dtype=np.int64)


class TestReverseReachable:
    def test_chain(self):
        # edges u -> u+1 (in-CSR rows are destinations)
        n = 8
        src = np.arange(n - 1, dtype=np.int64)
        dst = np.arange(1, n, dtype=np.int64)
        g = from_edge_index(src, dst, n, coalesce=False)
        frag = DeltaFragment.from_delta(
            GraphDelta(src=np.array([0], dtype=np.int64), dst=np.array([3], dtype=np.int64)),
            num_nodes=n,
            feature_dim=1,
        )
        view = LayeredCSR(g, [frag])
        # a write landing on node 3 can affect 3, then 4, then 5 at 2 hops
        np.testing.assert_array_equal(reverse_reachable(view, [3], 0), [3])
        np.testing.assert_array_equal(reverse_reachable(view, [3], 1), [3, 4])
        np.testing.assert_array_equal(reverse_reachable(view, [3], 2), [3, 4, 5])

    def test_layered_matches_materialized(self):
        g = random_graph(seed=5)
        frag = make_fragment(g, random_delta(g.num_nodes, seed=6))
        view = LayeredCSR(g, [frag])
        frozen = view.materialize()
        for hops in (1, 2, 3):
            np.testing.assert_array_equal(
                reverse_reachable(view, frag.rows, hops),
                reverse_reachable(frozen, frag.rows, hops),
            )

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError, match="hops"):
            reverse_reachable(random_graph(), [0], -1)

    @pytest.mark.parametrize("num_fragments", [1, 48])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_bfs_oracle(self, num_fragments, seed):
        # directed, non-symmetric base (a transposed walk would differ)
        # under fragments that append nodes and wire them to each other
        base = random_graph(num_nodes=40, num_edges=90, seed=seed)
        assert base != base.reverse()
        view = appending_view(base, num_fragments, seed)
        assert view.num_nodes > base.num_nodes
        frozen = view.materialize()
        rng = derive_rng(seed, "delta-test-reach-seeds")
        appended = np.arange(base.num_nodes, view.num_nodes, dtype=np.int64)
        seed_sets = [
            np.empty(0, dtype=np.int64),
            appended[:2],
            view.fragments[-1].rows,
            # unsorted, with a repeat, mixing base and appended ids
            np.concatenate([rng.integers(0, view.num_nodes, size=5), appended[-1:], [3, 3]]),
        ]
        for seeds in seed_sets:
            for hops in range(5):
                want = bfs_reach(frozen, seeds, hops)
                for graph in (view, frozen):
                    got = reverse_reachable(graph, seeds, hops)
                    assert got.dtype == np.int64
                    np.testing.assert_array_equal(got, want)
            want = bfs_reach(base, seeds[seeds < base.num_nodes], 3)
            got = reverse_reachable(base, seeds[seeds < base.num_nodes], 3)
            np.testing.assert_array_equal(got, want)

    def test_shared_store_views(self):
        # the store's base is wrapped by from_trusted_parts: its memoised
        # transpose starts empty and is built by the first reach
        ds = load_dataset("ogbn-products", seed=0, scale_override=8)
        with SharedGraphStore.from_dataset(ds) as store:
            for i in range(2):
                rng = derive_rng(i, "delta-test-store-reach")
                store.apply_delta(
                    GraphDelta(
                        src=rng.integers(0, ds.graph.num_nodes, size=8),
                        dst=rng.integers(0, ds.graph.num_nodes, size=8),
                    )
                )
            view = store.graph
            seeds = view.fragments[-1].rows
            np.testing.assert_array_equal(
                reverse_reachable(view, seeds, 2), bfs_reach(view.materialize(), seeds, 2)
            )


class TestMaterializeDataset:
    def test_features_and_labels_extend(self):
        ds = load_dataset("ogbn-products", seed=0, scale_override=8)
        delta = random_delta(
            ds.num_nodes, new_nodes=2, feature_dim=ds.features.shape[1], seed=9
        )
        frag = DeltaFragment.from_delta(
            delta,
            num_nodes=ds.num_nodes,
            feature_dim=int(ds.features.shape[1]),
            feature_dtype=ds.features.dtype,
            label_dtype=ds.labels.dtype,
        )
        merged = materialize_dataset(ds, [frag])
        assert merged.num_nodes == ds.num_nodes + 2
        assert merged.num_edges == ds.num_edges + len(frag.indices)
        np.testing.assert_array_equal(merged.features[: ds.num_nodes], ds.features)
        np.testing.assert_array_equal(merged.features[ds.num_nodes :], frag.features)
        np.testing.assert_array_equal(merged.labels[ds.num_nodes :], frag.labels)
        np.testing.assert_array_equal(merged.train_idx, ds.train_idx)
