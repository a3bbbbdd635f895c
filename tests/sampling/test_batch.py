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

from repro.graph import from_edge_index
from repro.graph.delta import DeltaFragment, GraphDelta, LayeredCSR
from repro.sampling.base import Sampler
from repro.sampling.batch import (
    assemble_block,
    check_seed_batches,
    draw_segment_keys,
    merge_frontiers,
    select_by_keys,
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
        # RNG contract: a segment whose frontier has no candidate edges
        # must leave its generator untouched (the looped path returns
        # before drawing) — the fused path must do the same
        sampler = NeighborSampler([3, 3])
        batches = [np.array([7]), np.array([0])]
        rng_iso = derive_rng(0, "serve", 7)
        rng_hub = derive_rng(0, "serve", 0)
        sampler.sample_merged(quirky_graph, batches, [rng_iso, rng_hub])
        fresh = derive_rng(0, "serve", 7)
        assert rng_iso.random() == fresh.random()


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
    def test_draw_segment_keys_matches_per_stream_draws(self):
        counts = np.array([3, 0, 5, 0, 1])
        keys = draw_segment_keys(
            [derive_rng(0, "k", i) for i in range(5)], counts
        )
        want = np.concatenate(
            [
                derive_rng(0, "k", i).random(int(c))
                for i, c in enumerate(counts)
                if c
            ]
        )
        np.testing.assert_array_equal(keys, want)

    def test_draw_segment_keys_skips_zero_count_streams(self):
        rngs = [derive_rng(0, "k", i) for i in range(3)]
        draw_segment_keys(rngs, np.array([2, 0, 2]))
        # stream 1 drew nothing: its next value equals a fresh stream's
        assert rngs[1].random() == derive_rng(0, "k", 1).random()

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
# select_by_keys: prefiltered selection == sorting every candidate
# ----------------------------------------------------------------------


def select_by_full_lexsort(srcs, offsets, fanout, keys):
    """The kernel before prefiltering: one stable lexsort over every
    candidate, then the first ``min(fanout, deg)`` of each node."""
    degs = np.diff(offsets)
    seg_ids = np.repeat(np.arange(len(degs), dtype=np.int64), degs)
    order = np.lexsort((keys, seg_ids))
    ranks = np.arange(len(srcs)) - np.repeat(offsets[:-1], degs)
    keep = ranks < np.minimum(degs, fanout)[seg_ids]
    return srcs[order][keep], seg_ids[keep]


def candidates(degs, rng):
    offsets = np.zeros(len(degs) + 1, dtype=np.int64)
    np.cumsum(degs, out=offsets[1:])
    return rng.integers(0, 10**6, int(offsets[-1])), offsets


def assert_selection_exact(srcs, offsets, fanout, keys):
    positions, got_pos = select_by_keys(offsets, fanout, keys)
    got_src = srcs[positions]
    want_src, want_pos = select_by_full_lexsort(srcs, offsets, fanout, keys)
    # element for element: edge order within a destination is the
    # aggregate's summation order
    np.testing.assert_array_equal(got_src, want_src)
    np.testing.assert_array_equal(got_pos, want_pos)
    assert got_src.dtype == want_src.dtype and got_pos.dtype == want_pos.dtype


class TestSelectByKeys:
    @pytest.mark.parametrize("case", range(120))
    def test_equals_full_lexsort(self, case):
        rng = derive_rng(0, "select", case)
        degs = rng.integers(0, 60, int(rng.integers(1, 40)))  # zero-degree nodes included
        if case % 3 == 0:
            degs[rng.integers(0, len(degs))] = 3000  # a hub
        if case % 5 == 0:
            degs = rng.integers(0, 4, len(degs))  # deg <= fanout everywhere
        srcs, offsets = candidates(degs, rng)
        keys = rng.random(len(srcs))
        if case % 2 == 0:
            keys = np.round(keys, 1)  # ties, broken by candidate position
        if case % 7 == 0:
            keys = 0.99 + 0.01 * keys  # nothing falls under any threshold
        assert_selection_exact(srcs, offsets, int(rng.integers(1, 20)), keys)

    def test_starved_node_keeps_its_whole_list(self):
        """A hub whose keys all sit near 1 has no candidate under its
        threshold; it must fall back to sorting all of them, beside
        ordinary hubs that take the prefiltered route."""
        rng = derive_rng(0, "starved")
        srcs, offsets = candidates(np.array([500, 3, 500, 0, 500]), rng)
        keys = rng.random(len(srcs))
        keys[offsets[2] : offsets[3]] = 0.9 + 0.1 * keys[offsets[2] : offsets[3]]
        fanout = 5
        threshold = (2 * fanout + 8) / 500
        assert (keys[offsets[2] : offsets[3]] >= threshold).all()
        assert (keys[: offsets[1]] < threshold).sum() >= fanout
        assert_selection_exact(srcs, offsets, fanout, keys)

    @pytest.mark.parametrize(
        "spoil", [-0.0, -0.25, np.inf, np.nan], ids=["negzero", "negative", "inf", "nan"]
    )
    def test_keys_outside_the_unit_interval(self, spoil):
        # the kernel only ever sees rng.random() keys, but it is exact
        # for any other float64 that is not NaN: inf fails every
        # threshold test (even the infinite one of a low-degree node) and
        # starves its node.  So does NaN, and a starved node's NaN would
        # reach the complex sort, which orders n + nan*1j after every
        # finite entry whatever n is: that is refused, not mis-sorted
        rng = derive_rng(0, "spoil")
        srcs, offsets = candidates(np.array([40, 2, 0, 7]), rng)
        keys = rng.random(len(srcs))
        keys[[0, 5, 41, 44]] = spoil
        if np.isnan(spoil):
            with pytest.raises(ValueError, match="sort keys must not be NaN"):
                select_by_keys(offsets, 3, keys)
        else:
            assert_selection_exact(srcs, offsets, 3, keys)

    def test_equal_keys_inside_a_node(self):
        # every candidate of a node shares one key: candidate position
        # alone decides, on the prefiltered and the keep-all route
        srcs, offsets = candidates(np.array([9, 200, 1, 30]), derive_rng(0, "ties"))
        node = np.repeat(np.arange(4), np.diff(offsets))
        keys = np.array([0.25, 0.001, 0.5, 0.125])[node]
        for fanout in (1, 4, 9, 40):
            assert_selection_exact(srcs, offsets, fanout, keys)
            positions, pos = select_by_keys(offsets, fanout, keys)
            first = np.minimum(np.diff(offsets), fanout)
            want = np.concatenate([offsets[i] + np.arange(first[i]) for i in range(4)])
            np.testing.assert_array_equal(positions, want)

    def test_equal_keys_straddling_a_node_boundary(self):
        # the last candidates of one node and the first of the next tie:
        # a sort that let the key outrank the node would interleave them
        rng = derive_rng(0, "straddle")
        srcs, offsets = candidates(np.array([40, 40, 40]), rng)
        keys = rng.random(len(srcs))
        keys[35:45] = 0.0
        keys[75:85] = keys[0]
        for fanout in (3, 7, 40):
            assert_selection_exact(srcs, offsets, fanout, keys)

    def test_all_zero_keys(self):
        srcs, offsets = candidates(np.array([0, 70, 3, 0, 3000, 1, 0]), derive_rng(0, "zeros"))
        for fanout in (1, 5, 64):
            assert_selection_exact(srcs, offsets, fanout, np.zeros(len(srcs)))

    def test_hub_beside_empty_and_single_candidate_nodes(self):
        # reduceat counts survivors per node and answers a[i] for an
        # empty segment: zero-degree nodes around a hub must not borrow
        # its survivors, at the front, in the middle or at the very end
        rng = derive_rng(0, "hub")
        for degs in ([0, 3000, 0, 1, 0], [1, 0, 0, 3000, 1], [3000, 1, 0], [0, 0, 1, 3000, 0, 0]):
            srcs, offsets = candidates(np.array(degs), rng)
            for fanout in (1, 5, 15):
                assert_selection_exact(srcs, offsets, fanout, rng.random(len(srcs)))
                assert_selection_exact(srcs, offsets, fanout, np.round(rng.random(len(srcs)), 2))

    def test_frontier_of_two_to_the_seventeen_nodes(self):
        # more node bits than a (node, key) word packed into 64 could
        # spare without truncating the key; the complex order truncates
        # nothing, so near-equal keys still order exactly
        rng = derive_rng(0, "wide")
        degs = rng.integers(0, 4, 1 << 17)
        degs[-1] = 40
        srcs, offsets = candidates(degs, rng)
        keys = 0.5 + rng.integers(0, 3, len(srcs)) * 2.0**-53  # last-bit neighbours
        assert len(np.unique(keys)) == 3
        assert_selection_exact(srcs, offsets, 2, keys)

    def test_rejects_bad_fanout_and_passes_empty_through(self):
        with pytest.raises(ValueError):
            select_by_keys(np.zeros(1, dtype=np.int64), 0, np.empty(0))
        positions, pos = select_by_keys(np.zeros(3, dtype=np.int64), 2, np.empty(0))
        assert len(positions) == 0 and len(pos) == 0
        assert positions.dtype == np.int64 and pos.dtype == np.int64


# ----------------------------------------------------------------------
# the algorithm before select-then-gather, kept here as the oracle:
# gather every candidate, draw, full lexsort, unique/isin/argsort blocks
# ----------------------------------------------------------------------


def parent_sample_neighbors(graph, nodes, fanout, rng):
    srcs, offsets = graph.gather_neighbors(np.asarray(nodes, dtype=np.int64))
    if len(srcs) == 0:
        return srcs, np.empty(0, dtype=np.int64)  # and no draw
    return select_by_full_lexsort(srcs, offsets, fanout, rng.random(len(srcs)))


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
