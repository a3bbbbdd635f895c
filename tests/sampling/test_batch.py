"""Fused multi-seed sampling: bit-for-bit parity with the looped path.

The PR 6 serving hot path replaces the per-request ``sampler.sample``
loop with one vectorised multi-segment pass
(:meth:`NeighborSampler.sample_merged` /
:meth:`ShadowSampler.sample_merged`).  The contract is *bit-identity*
to the looped reference ``Sampler.sample_merged`` — same RNG streams,
same draw order, same merged layout — which this suite checks across
samplers, fanouts, batch sizes and the edge cases that stress the
segmented kernels (zero-degree nodes, deg <= fanout, duplicate request
nodes across segments, single-node batches).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph, from_edge_index
from repro.graph.delta import DeltaFragment, GraphDelta, LayeredCSR
from repro.sampling.base import Sampler
from repro.sampling.batch import (
    assemble_block,
    check_seed_batches,
    merge_frontiers,
    sample_layer,
)
from repro.sampling.block import Block, MiniBatch
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.shadow import ShadowSampler
from repro.utils.rng import derive_rng

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def serve_rngs(nodes):
    """One per-request serving stream per (flattened) seed batch."""
    return [derive_rng(0, "serve", int(np.asarray(n).flat[0])) for n in nodes]


def looped_reference(sampler, graph, seed_batches, rngs):
    """The base-class looped sample-then-merge path, bypassing overrides."""
    return Sampler.sample_merged(sampler, graph, seed_batches, rngs)


def assert_blocks_equal(got, want):
    np.testing.assert_array_equal(got.src_ids, want.src_ids)
    assert got.num_dst == want.num_dst
    np.testing.assert_array_equal(got.edge_src, want.edge_src)
    np.testing.assert_array_equal(got.edge_dst, want.edge_dst)
    for name in ("src_ids", "edge_src", "edge_dst"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
    for name in ("src_splits", "dst_splits"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a, b)


def assert_merged_equal(fused, looped):
    """Field-by-field bit equality of two MergedFrontiers."""
    np.testing.assert_array_equal(fused.seeds, looped.seeds)
    np.testing.assert_array_equal(fused.request_rows, looped.request_rows)
    assert len(fused.blocks) == len(looped.blocks)
    for a, b in zip(fused.blocks, looped.blocks):
        assert_blocks_equal(a, b)


@pytest.fixture(scope="module")
def quirky_graph():
    """8-node graph with an isolated node (7) and low-degree nodes.

    Degrees: node 0 is a hub, nodes 5-6 have degree 1, node 7 has no
    in-edges at all — the zero-candidate case the RNG contract carves
    out (no draw happens for it).
    """
    src = [1, 2, 3, 4, 5, 6, 0, 0, 0, 1, 2, 0, 1]
    dst = [0, 0, 0, 0, 0, 0, 1, 2, 3, 3, 4, 5, 6]
    return from_edge_index(src, dst, num_nodes=8, self_loops=False)


# ----------------------------------------------------------------------
# parity: fused == looped, bit for bit
# ----------------------------------------------------------------------


class TestNeighborParity:
    @pytest.mark.parametrize("fanouts", [[5], [3, 3], [15, 10, 5]])
    @pytest.mark.parametrize("num_requests", [1, 2, 7, 16])
    def test_single_node_requests(self, tiny_dataset, fanouts, num_requests):
        sampler = NeighborSampler(fanouts)
        nodes = tiny_dataset.train_idx[:num_requests]
        batches = [nodes[i : i + 1] for i in range(num_requests)]
        fused = sampler.sample_merged(tiny_dataset.graph, batches, serve_rngs(nodes))
        looped = looped_reference(
            sampler, tiny_dataset.graph, batches, serve_rngs(nodes)
        )
        assert_merged_equal(fused, looped)

    @pytest.mark.parametrize("sizes", [[1], [3, 1, 2], [4, 4, 4, 4]])
    def test_multi_seed_segments(self, tiny_dataset, sizes):
        sampler = NeighborSampler([4, 4])
        nodes, off = tiny_dataset.train_idx, 0
        batches = []
        for s in sizes:
            batches.append(nodes[off : off + s])
            off += s
        fused = sampler.sample_merged(tiny_dataset.graph, batches, serve_rngs(batches))
        looped = looped_reference(
            sampler, tiny_dataset.graph, batches, serve_rngs(batches)
        )
        assert_merged_equal(fused, looped)

    def test_duplicate_request_nodes(self, tiny_dataset):
        # the same node requested by several segments: each draws its own
        # neighbour multiset from its own stream; no cross-request sharing
        node = tiny_dataset.train_idx[0]
        batches = [np.array([node])] * 4
        sampler = NeighborSampler([5, 5])
        rngs = [derive_rng(0, "serve", int(node)) for _ in batches]
        fused = sampler.sample_merged(tiny_dataset.graph, batches, rngs)
        rngs = [derive_rng(0, "serve", int(node)) for _ in batches]
        looped = looped_reference(sampler, tiny_dataset.graph, batches, rngs)
        assert_merged_equal(fused, looped)
        # identical streams => identical per-segment subgraphs
        blk = fused.blocks[0]
        first = blk.src_ids[blk.src_splits[0] : blk.src_splits[1]]
        for k in range(1, 4):
            np.testing.assert_array_equal(
                blk.src_ids[blk.src_splits[k] : blk.src_splits[k + 1]], first
            )

    @pytest.mark.parametrize("fanouts", [[2], [2, 2], [10, 10]])
    def test_zero_degree_and_tiny_degrees(self, quirky_graph, fanouts):
        # isolated node 7 alone, mixed with the hub, and deg <= fanout
        sampler = NeighborSampler(fanouts)
        for batches in (
            [np.array([7])],
            [np.array([7]), np.array([0])],
            [np.array([5]), np.array([7]), np.array([6])],
            [np.array([0, 7]), np.array([3, 4])],
        ):
            fused = sampler.sample_merged(quirky_graph, batches, serve_rngs(batches))
            looped = looped_reference(
                sampler, quirky_graph, batches, serve_rngs(batches)
            )
            assert_merged_equal(fused, looped)

    def test_zero_candidate_segment_draws_nothing(self, quirky_graph):
        # RNG contract: a segment with no node to choose for (every node
        # has deg <= fanout, the isolated node 7 included) takes every
        # edge and leaves its generator untouched, beside a segment that
        # draws (the hub, node 0)
        for fanouts, batches in (
            ([3, 3], [np.array([7]), np.array([0])]),
            ([3], [np.array([3, 5]), np.array([7]), np.array([0])]),
        ):
            rngs = serve_rngs(batches)
            fused = NeighborSampler(fanouts).sample_merged(quirky_graph, batches, rngs)
            for rng, fresh in zip(rngs[:-1], serve_rngs(batches[:-1])):
                assert rng.random() == fresh.random()
            assert rngs[-1].random() != serve_rngs(batches[-1:])[0].random()
            blk = fused.blocks[-1]
            quiet = blk.edge_dst < blk.dst_splits[-2]
            np.testing.assert_array_equal(
                np.bincount(blk.edge_dst[quiet], minlength=blk.dst_splits[-2]),
                quirky_graph.in_degree(np.concatenate(batches[:-1])),
            )


class TestShadowParity:
    @pytest.mark.parametrize("fanouts", [[3, 2], [10, 5]])
    @pytest.mark.parametrize("num_requests", [1, 2, 7, 16])
    def test_single_node_requests(self, tiny_dataset, fanouts, num_requests):
        sampler = ShadowSampler(fanouts=fanouts, num_layers=3)
        nodes = tiny_dataset.train_idx[:num_requests]
        batches = [nodes[i : i + 1] for i in range(num_requests)]
        fused = sampler.sample_merged(tiny_dataset.graph, batches, serve_rngs(nodes))
        looped = looped_reference(
            sampler, tiny_dataset.graph, batches, serve_rngs(nodes)
        )
        assert_merged_equal(fused, looped)

    def test_multi_seed_and_edge_cases(self, tiny_dataset, quirky_graph):
        sampler = ShadowSampler(fanouts=[3, 2], num_layers=2)
        nodes = tiny_dataset.train_idx
        batches = [nodes[:3], nodes[3:4], nodes[4:6]]
        fused = sampler.sample_merged(tiny_dataset.graph, batches, serve_rngs(batches))
        looped = looped_reference(
            sampler, tiny_dataset.graph, batches, serve_rngs(batches)
        )
        assert_merged_equal(fused, looped)
        # isolated node: its hop loop finds nothing, the request's
        # subgraph is the seed alone — mixed with a hub request
        for small in (
            [np.array([7])],
            [np.array([7]), np.array([0])],
            [np.array([0, 7]), np.array([5])],
        ):
            fused = sampler.sample_merged(quirky_graph, small, serve_rngs(small))
            looped = looped_reference(sampler, quirky_graph, small, serve_rngs(small))
            assert_merged_equal(fused, looped)


# ----------------------------------------------------------------------
# kernel units
# ----------------------------------------------------------------------


class TestKernelUnits:
    def test_check_seed_batches_rejections(self):
        rng = derive_rng(0)
        with pytest.raises(ValueError):
            check_seed_batches([], [])
        with pytest.raises(ValueError):
            check_seed_batches([np.array([1])], [rng, rng])
        with pytest.raises(ValueError):
            check_seed_batches([np.array([], dtype=np.int64)], [rng])
        with pytest.raises(ValueError):
            check_seed_batches([np.array([2, 2])], [rng])


# ----------------------------------------------------------------------
# sample_layer's selection: the sort-free kernel == a full lexsort of
# the per-node Floyd picks
# ----------------------------------------------------------------------


def candidates(degs, rng):
    """A graph whose nodes have in-degrees ``degs`` and random neighbour
    ids, and a frontier listing every node once in random order."""
    degs = np.asarray(degs, dtype=np.int64)
    indptr = np.zeros(len(degs) + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    graph = CSRGraph(indptr, rng.integers(0, len(degs), int(indptr[-1])))
    return graph, rng.permutation(len(degs))


class ConstantDraws:
    """Stands in for a generator whose every draw is ``value``, or the
    bound's top position where ``value`` does not fit under it."""

    def __init__(self, value):
        self.value = value

    def integers(self, low, high, dtype):
        return np.minimum(self.value, np.asarray(high) - 1).astype(dtype)


def select_by_full_lexsort(graph, frontier, fanout, rng):
    """Per-node Floyd picks in the order the steps take them, from one
    ``integers`` call over the drawing nodes' bound rows, then one stable
    lexsort of every (node, position) pick."""
    srcs, offsets = graph.gather_neighbors(frontier)
    degs = np.diff(offsets).tolist()
    bounds = [[d - fanout + 1 + i for i in range(fanout)] for d in degs if d > fanout]
    rows = iter(rng.integers(0, bounds, dtype=np.int64).tolist() if bounds else [])
    nodes, positions = [], []
    for node, deg in enumerate(degs):
        if deg <= fanout:
            picks = list(range(deg))[::-1]  # any order: the lexsort decides
        else:
            picks = []
            for i, t in enumerate(next(rows)):
                picks.append(deg - fanout + i if t in picks else t)
        nodes += [node] * len(picks)
        positions += picks
    nodes = np.array(nodes, dtype=np.int64)
    positions = np.array(positions, dtype=np.int64)
    order = np.lexsort((positions, nodes))
    return srcs[offsets[nodes] + positions][order], nodes[order]


def assert_selection_exact(graph, frontier, fanout, make_rngs, splits=None):
    """``make_rngs()`` gives fresh, equal streams, one per segment."""
    splits = np.array([0, len(frontier)]) if splits is None else np.asarray(splits)
    got_src, got_pos = sample_layer(graph, frontier, fanout, make_rngs(), splits)
    want_src, want_pos = [], []
    for rng, s0, s1 in zip(make_rngs(), splits[:-1], splits[1:]):
        src, pos = select_by_full_lexsort(graph, frontier[s0:s1], fanout, rng)
        want_src.append(src)
        want_pos.append(pos + s0)
    # element for element: edge order within a destination is the
    # aggregate's summation order
    np.testing.assert_array_equal(got_src, np.concatenate(want_src))
    np.testing.assert_array_equal(got_pos, np.concatenate(want_pos))
    assert got_src.dtype == np.int64 and got_pos.dtype == np.int64


class TestSelectByKeys:
    @pytest.mark.parametrize("case", range(120))
    def test_equals_full_lexsort(self, case):
        rng = derive_rng(0, "select", case)
        degs = rng.integers(0, 60, int(rng.integers(1, 40)))  # zero-degree nodes included
        if case % 3 == 0:
            degs[rng.integers(0, len(degs))] = 3000  # a hub
        if case % 5 == 0:
            degs = rng.integers(0, 4, len(degs))  # deg <= fanout everywhere
        graph, frontier = candidates(degs, rng)
        splits = None
        if case % 2 == 0:
            # several segments, an empty one among them, each its own stream
            cuts = np.sort(rng.integers(0, len(frontier) + 1, 3))
            splits = np.concatenate([[0], cuts, [len(frontier)]])
        num_segments = 1 if splits is None else len(splits) - 1
        assert_selection_exact(
            graph,
            frontier,
            int(rng.integers(1, 20)),
            lambda: [derive_rng(0, "select", case, k) for k in range(num_segments)],
            splits,
        )

    def test_equal_keys_inside_a_node(self):
        # every step of a node draws the same position (its bound's top
        # while that is lower): each step after the first finds its draw
        # taken or equal to its own top, and takes that top
        graph, frontier = candidates(np.array([9, 200, 1, 30]), derive_rng(0, "ties"))
        degs = graph.in_degree(frontier)
        for value in (0, 1, 7):
            for fanout in (1, 4, 9, 40):
                assert_selection_exact(graph, frontier, fanout, lambda: [ConstantDraws(value)])
                src, pos = sample_layer(
                    graph, frontier, fanout, [ConstantDraws(value)], np.array([0, 4])
                )
                want = np.concatenate(
                    [
                        np.arange(d)
                        if d <= fanout
                        else np.r_[min(value, d - fanout), np.arange(d - fanout + 1, d)]
                        for d in degs
                    ]
                )
                offsets = graph.indptr[frontier][pos]
                np.testing.assert_array_equal(src, graph.indices[offsets + want])

    def test_all_zero_keys(self):
        graph, frontier = candidates(np.array([0, 70, 3, 0, 3000, 1, 0]), derive_rng(0, "zeros"))
        for fanout in (1, 5, 64):
            assert_selection_exact(graph, frontier, fanout, lambda: [ConstantDraws(0)])

    def test_hub_beside_empty_and_single_candidate_nodes(self):
        # zero-degree and one-edge nodes around a hub draw nothing and
        # must not borrow its winners or its draw row, at the front, in
        # the middle or at the very end
        rng = derive_rng(0, "hub")
        for degs in ([0, 3000, 0, 1, 0], [1, 0, 0, 3000, 1], [3000, 1, 0], [0, 0, 1, 3000, 0, 0]):
            graph, _ = candidates(np.array(degs), rng)
            frontier = np.arange(len(degs))
            for fanout in (1, 5, 15):
                for k in range(2):
                    assert_selection_exact(
                        graph, frontier, fanout, lambda: [derive_rng(0, "hub", fanout, k)]
                    )

    def test_frontier_of_two_to_the_seventeen_nodes(self):
        # tens of thousands of drawing nodes in one draw matrix, most of
        # them with a single position to spare
        rng = derive_rng(0, "wide")
        degs = rng.integers(0, 4, 1 << 17)
        degs[-1] = 40
        graph, frontier = candidates(degs, rng)
        assert (degs > 2).sum() > 30000
        assert_selection_exact(graph, frontier, 2, lambda: [derive_rng(0, "wide", 1)])

    def test_rejects_bad_fanout_and_passes_empty_through(self, quirky_graph):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ValueError, match="fanout must be >= 1"):
            sample_layer(quirky_graph, np.array([0]), 0, [derive_rng(0)], np.array([0, 1]))
        src, pos = sample_layer(quirky_graph, empty, 2, [derive_rng(0)], np.array([0, 0]))
        assert len(src) == 0 and len(pos) == 0
        assert src.dtype == np.int64 and pos.dtype == np.int64


# ----------------------------------------------------------------------
# the oracle: a plain per-node Python Floyd loop over the full neighbour
# lists, one ``integers`` call per stream per layer, and the
# unique/isin/argsort block build that came before assemble_block
# ----------------------------------------------------------------------


def parent_sample_neighbors(graph, nodes, fanout, rng):
    srcs, offsets = graph.gather_neighbors(np.asarray(nodes, dtype=np.int64))
    degs = np.diff(offsets).tolist()
    bounds = [[d - fanout + 1 + i for i in range(fanout)] for d in degs if d > fanout]
    rows = iter(rng.integers(0, bounds, dtype=np.int64).tolist() if bounds else [])
    src, dst_pos = [], []
    for node, deg in enumerate(degs):
        if deg <= fanout:
            chosen = range(deg)
        else:
            chosen = set()
            for i, t in enumerate(next(rows)):
                chosen.add(deg - fanout + i if t in chosen else t)
            chosen = sorted(chosen)
        src += [srcs[offsets[node] + c] for c in chosen]
        dst_pos += [node] * len(chosen)
    return np.array(src, dtype=np.int64), np.array(dst_pos, dtype=np.int64)


def parent_build_block(dst_ids, src_global, dst_pos):
    uniq = np.unique(src_global)
    extra = uniq[~np.isin(uniq, dst_ids, assume_unique=True)]
    src_ids = np.concatenate([dst_ids, extra])
    sorter = np.argsort(src_ids, kind="stable")
    pos = sorter[np.searchsorted(src_ids, src_global, sorter=sorter)]
    return Block(src_ids=src_ids, num_dst=len(dst_ids), edge_src=pos, edge_dst=dst_pos)


def parent_neighbor_sample(graph, seeds, fanouts, rng):
    blocks, frontier = [], seeds
    for fanout in fanouts:
        block = parent_build_block(
            frontier, *parent_sample_neighbors(graph, frontier, fanout, rng)
        )
        blocks.append(block)
        frontier = block.src_ids
    return MiniBatch(seeds=seeds, blocks=blocks[::-1])


def parent_shadow_sample(graph, seeds, fanouts, num_layers, rng):
    node_set = frontier = seeds
    for fanout in fanouts:
        src_global, _ = parent_sample_neighbors(graph, frontier, fanout, rng)
        new = np.setdiff1d(np.unique(src_global), node_set)
        if len(new) == 0:
            break
        node_set = np.concatenate([node_set, new])
        frontier = new
    sub_src, sub_dst = graph.subgraph(node_set)[0].to_edge_index()
    full = Block(src_ids=node_set, num_dst=len(node_set), edge_src=sub_src, edge_dst=sub_dst)
    keep = sub_dst < len(seeds)
    last = Block(
        src_ids=node_set, num_dst=len(seeds), edge_src=sub_src[keep], edge_dst=sub_dst[keep]
    )
    return MiniBatch(seeds=seeds, blocks=[full] * (num_layers - 1) + [last])


def assert_minibatches_equal(got, want):
    np.testing.assert_array_equal(got.seeds, want.seeds)
    assert len(got.blocks) == len(want.blocks)
    for a, b in zip(got.blocks, want.blocks):
        assert_blocks_equal(a, b)


def request_edges(rng, num_nodes, num_dst, num_edges, inside_only=False):
    """One request's sampled edges: unique destinations, sources from
    the whole graph or (``inside_only``) from its own destinations."""
    frontier = rng.choice(num_nodes, size=num_dst, replace=False).astype(np.int64)
    dst_pos = np.sort(rng.integers(0, num_dst, num_edges)).astype(np.int64)
    src = rng.choice(frontier, num_edges) if inside_only else rng.integers(0, num_nodes, num_edges)
    return frontier, src.astype(np.int64), dst_pos


class TestAssembleBlock:
    @pytest.mark.parametrize("case", range(30))
    def test_solo_equals_parent_build_block(self, case):
        rng = derive_rng(0, "assemble-solo", case)
        num_dst = int(rng.integers(1, 50))
        # case % 3 == 0: nothing new is sampled; case % 5 == 0: no edge at all
        edges = 0 if case % 5 == 0 else int(rng.integers(1, 300))
        frontier, src, dst_pos = request_edges(rng, 80, num_dst, edges, case % 3 == 0)
        got = assemble_block(frontier, src, dst_pos)
        assert_blocks_equal(got, parent_build_block(frontier, src, dst_pos))
        if case % 3 == 0 or edges == 0:
            np.testing.assert_array_equal(got.src_ids, frontier)

    @pytest.mark.parametrize("case", range(30))
    def test_merged_equals_merging_parent_blocks(self, case):
        rng = derive_rng(0, "assemble-merged", case)
        num_nodes = 60  # small: requests overlap, and must not be deduplicated
        requests = [
            request_edges(
                rng, num_nodes, int(rng.integers(1, 12)),
                0 if (case + k) % 4 == 0 else int(rng.integers(1, 60)),
                inside_only=(case + k) % 3 == 0,
            )
            for k in range(int(rng.integers(1, 9)))
        ]
        if case == 0:
            requests = [request_edges(rng, num_nodes, 4, 0) for _ in range(3)]  # no edge anywhere
        want = merge_frontiers(
            [
                MiniBatch(seeds=f, blocks=[parent_build_block(f, s, d)])
                for f, s, d in requests
            ]
        ).blocks[0]
        splits = np.zeros(len(requests) + 1, dtype=np.int64)
        np.cumsum([len(f) for f, _, _ in requests], out=splits[1:])
        got = assemble_block(
            np.concatenate([f for f, _, _ in requests]),
            np.concatenate([s for _, s, _ in requests]),
            np.concatenate([d + off for (_, _, d), off in zip(requests, splits)]),
            splits,
            num_nodes,
        )
        assert_blocks_equal(got, want)


def delta_view(graph, seed):
    """``graph`` with three small deltas layered on top."""
    frags = []
    for i in range(3):
        rng = derive_rng(seed, "sample-view", i)
        delta = GraphDelta(
            src=rng.integers(0, graph.num_nodes, 12), dst=rng.integers(0, graph.num_nodes, 12)
        )
        frags.append(DeltaFragment.from_delta(delta, num_nodes=graph.num_nodes, feature_dim=1))
    return LayeredCSR(graph, frags)


@st.composite
def sampling_problems(draw):
    """A graph from a drawn degree sequence (hubs, leaves and isolated
    nodes together), fanouts, and a seed for everything else."""
    degs = draw(
        st.lists(st.sampled_from([0, 0, 1, 2, 3, 7, 30, 200]), min_size=4, max_size=40)
    )
    fanouts = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    return degs, fanouts, draw(st.integers(0, 2**16))


class TestEqualsTheParentAlgorithm:
    @settings(max_examples=60, deadline=None)
    @given(sampling_problems(), st.booleans())
    def test_sample_and_sample_merged(self, problem, layered):
        degs, fanouts, seed = problem
        rng = derive_rng(seed, "parent-oracle")
        n = len(degs)
        dst = np.repeat(np.arange(n), degs)
        graph = from_edge_index(rng.integers(0, n, len(dst)), dst, n, coalesce=False)
        if layered:
            graph = delta_view(graph, seed)
        batches = [
            rng.choice(n, size=int(rng.integers(1, 4)), replace=False).astype(np.int64)
            for _ in range(int(rng.integers(1, 5)))
        ]

        def streams():
            return [derive_rng(seed, "stream", k) for k in range(len(batches))]

        for sampler, parent in (
            (
                NeighborSampler(fanouts),
                lambda b, r: parent_neighbor_sample(graph, b, fanouts, r),
            ),
            (
                ShadowSampler(fanouts, num_layers=2),
                lambda b, r: parent_shadow_sample(graph, b, fanouts, 2, r),
            ),
        ):
            want = [parent(b, r) for b, r in zip(batches, streams())]
            mine, theirs = streams(), streams()
            for b, r, w in zip(batches, mine, want):
                assert_minibatches_equal(sampler.sample(graph, b, rng=r), w)
            fused = sampler.sample_merged(graph, batches, theirs)
            assert_merged_equal(fused, merge_frontiers(want))
            # each stream was consumed exactly as far as the parent's
            for k, (a, b) in enumerate(zip(mine, theirs)):
                spent = derive_rng(seed, "stream", k)
                parent(batches[k], spent)
                assert a.random() == b.random() == spent.random()
