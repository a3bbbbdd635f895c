"""Per-winner neighbour sampling: uniformity and the draw-count contract.

Each node with ``deg > fanout`` keeps a ``fanout``-subset of its in-edges
chosen by Floyd's algorithm from one row of bounded integer draws.  The
battery checks that every subset is equally likely (chi-squared over all
``C(deg, fanout)`` subsets at small degrees), that every position of a
hub is hit equally often (the top positions Floyd's replacement step
writes included), that both hold across request segments of
``sample_merged`` and over a :class:`LayeredCSR`'s merged adjacency, and
that each segment's generator sees exactly one ``integers`` call per
layer in which it has a drawing node, and nothing else.

Every check runs on fixed seeds, so its verdict repeats; the p-value
floors are loose enough that a uniform sampler passes them with room.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest
from scipy.stats import chi2

from repro.graph import from_edge_index
from repro.graph.delta import DeltaFragment, GraphDelta, LayeredCSR
from repro.sampling.neighbor import NeighborSampler, sample_neighbors_uniform
from repro.sampling.shadow import ShadowSampler
from repro.utils.rng import derive_rng

P_FLOOR = 1e-4


def star(degree: int, hubs: int = 1):
    """Nodes ``0..hubs-1`` each have in-neighbours ``hubs..hubs+degree-1``,
    so a source id minus ``hubs`` is its adjacency position."""
    src = np.tile(np.arange(hubs, hubs + degree), hubs)
    dst = np.repeat(np.arange(hubs), degree)
    return from_edge_index(src, dst, hubs + degree)


def chi2_pvalue(counts: np.ndarray) -> float:
    expected = counts.sum() / len(counts)
    return float(chi2.sf(((counts - expected) ** 2 / expected).sum(), len(counts) - 1))


def subset_counts(positions: np.ndarray, rows: np.ndarray, degree: int, fanout: int):
    """How often each ``fanout``-subset of ``range(degree)`` was drawn,
    one subset per row, as a vector over all ``C(degree, fanout)`` subsets."""
    masks = np.bincount(rows, weights=2.0**positions).astype(np.int64)
    index = {
        sum(1 << p for p in subset): i
        for i, subset in enumerate(combinations(range(degree), fanout))
    }
    counts = np.zeros(len(index))
    for mask in masks:
        counts[index[int(mask)]] += 1
    return counts


def assert_rows_are_subsets(positions, rows, fanout):
    per_row = np.bincount(rows)
    assert (per_row == fanout).all()
    # ascending and distinct within each row
    same_row = rows[1:] == rows[:-1]
    assert (positions[1:][same_row] > positions[:-1][same_row]).all()


class TestEverySubsetEquallyLikely:
    @pytest.mark.parametrize("degree,fanout", [(6, 3), (5, 1), (5, 4), (7, 2), (8, 5)])
    def test_chi_squared_over_all_subsets(self, degree, fanout):
        # one frontier of the same hub many times over: each row is an
        # independent draw from the one stream
        draws = 200 * comb(degree, fanout)
        src, rows = sample_neighbors_uniform(
            star(degree), np.zeros(draws, dtype=np.int64), fanout, derive_rng(0, "subsets")
        )
        positions = src - 1
        assert_rows_are_subsets(positions, rows, fanout)
        assert chi2_pvalue(subset_counts(positions, rows, degree, fanout)) > P_FLOOR

    def test_degree_at_most_fanout_keeps_every_edge_in_order(self):
        graph = star(4)
        src, rows = sample_neighbors_uniform(
            graph, np.zeros(3, dtype=np.int64), 4, derive_rng(0, "all")
        )
        np.testing.assert_array_equal(src, np.tile(graph.neighbors(0), 3))
        np.testing.assert_array_equal(rows, np.repeat(np.arange(3), 4))


class TestHubMarginals:
    @pytest.mark.parametrize("fanout", [1, 5, 15])
    def test_every_position_equally_often(self, fanout):
        degree, draws = 3000, 20000
        src, rows = sample_neighbors_uniform(
            star(degree), np.zeros(draws, dtype=np.int64), fanout, derive_rng(0, "hub", fanout)
        )
        positions = src - 1
        assert_rows_are_subsets(positions, rows, fanout)
        hits = np.bincount(positions, minlength=degree)
        assert chi2_pvalue(hits) > P_FLOOR
        # Floyd's replacement writes only the top `fanout` positions, and
        # a first-come bias would show in the bottom ones: each band's
        # total is binomial around draws * fanout**2 / degree
        expected = draws * fanout * fanout / degree
        spread = 5 * np.sqrt(expected)
        for band in (hits[:fanout], hits[-fanout:]):
            assert abs(band.sum() - expected) < spread

    def test_rank_of_each_winner_is_uniform_over_its_window(self):
        # winners come out ascending, so the j-th smallest of a uniform
        # k-subset of d positions has mean (j + 1) * (d + 1) / (k + 1) - 1
        degree, fanout, draws = 200, 4, 20000
        src, _ = sample_neighbors_uniform(
            star(degree), np.zeros(draws, dtype=np.int64), fanout, derive_rng(0, "ranks")
        )
        ranked = (src - 1).reshape(draws, fanout).astype(float)
        want = (np.arange(1, fanout + 1) * (degree + 1) / (fanout + 1)) - 1
        sd = ranked.std(axis=0) / np.sqrt(draws)
        assert (np.abs(ranked.mean(axis=0) - want) < 5 * sd).all()


class TestAcrossSegmentsAndDeltas:
    def test_merged_segments_each_draw_uniform_subsets(self):
        # one hub per request, every request its own stream, with
        # low-degree neighbours beside it in the same segment
        degree, fanout = 6, 3
        graph = star(degree, hubs=2)
        draws = 200 * comb(degree, fanout)
        batches = [np.array([2, k % 2]) for k in range(draws)]
        rngs = [derive_rng(0, "segments", k) for k in range(draws)]
        block = NeighborSampler([fanout]).sample_merged(graph, batches, rngs).blocks[0]
        hub_rows = np.arange(1, 2 * draws, 2)  # each segment's second destination
        on_hub = np.isin(block.edge_dst, hub_rows)
        src = block.src_ids[block.edge_src[on_hub]]
        rows = block.edge_dst[on_hub] // 2
        positions = src - 2
        assert_rows_are_subsets(positions, rows, fanout)
        assert chi2_pvalue(subset_counts(positions, rows, degree, fanout)) > P_FLOOR

    def test_layered_view_samples_the_merged_adjacency(self):
        # base degree 4, two deltas add 1 and 2 edges: the merged list is
        # base then delta slices, and subsets are uniform over all seven
        num_nodes = 8
        base = from_edge_index(np.arange(1, 5), np.zeros(4, dtype=np.int64), num_nodes)
        frags = [
            DeltaFragment.from_delta(
                GraphDelta(src=np.array(s), dst=np.zeros(len(s), dtype=np.int64)),
                num_nodes=num_nodes,
                feature_dim=1,
            )
            for s in ([5], [6, 7])
        ]
        view = LayeredCSR(base, frags)
        np.testing.assert_array_equal(view.neighbors(0), np.arange(1, 8))
        degree, fanout = 7, 3
        draws = 200 * comb(degree, fanout)
        src, rows = sample_neighbors_uniform(
            view, np.zeros(draws, dtype=np.int64), fanout, derive_rng(0, "layered")
        )
        positions = src - 1
        assert_rows_are_subsets(positions, rows, fanout)
        assert chi2_pvalue(subset_counts(positions, rows, degree, fanout)) > P_FLOOR
        hits = np.bincount(positions, minlength=degree)
        assert hits[4:].sum() > 0.8 * draws * fanout * 3 / degree  # deltas take part


class RecordingGenerator(np.random.Generator):
    """A generator that logs the ``high`` of every ``integers`` call."""

    def __init__(self, *stream):
        super().__init__(np.random.PCG64(np.random.SeedSequence([7, *stream])))
        self.stream = stream
        self.highs = []

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        assert low == 0 and size is None and dtype is np.int64 and not endpoint
        self.highs.append(np.array(high))
        return super().integers(low, high, dtype=dtype)


def replayed(rng: RecordingGenerator) -> RecordingGenerator:
    """A fresh copy of ``rng``'s stream that made only its logged calls."""
    fresh = RecordingGenerator(*rng.stream)
    for high in rng.highs:
        fresh.integers(0, high, dtype=np.int64)
    return fresh


def expected_highs(graph, frontiers, fanouts):
    """The bounds matrix of every layer whose frontier has a drawing node."""
    out = []
    for frontier, fanout in zip(frontiers, fanouts):
        degs = graph.in_degree(frontier)
        degs = degs[degs > fanout]
        if len(degs):
            out.append((degs - fanout + 1)[:, None] + np.arange(fanout))
    return out


class TestDrawCountContract:
    def assert_stream_is_the_logged_calls(self, rng):
        assert rng.bit_generator.state == replayed(rng).bit_generator.state

    @pytest.mark.parametrize("fanouts", [[3], [3, 2], [15, 10, 5]])
    def test_one_integers_call_per_drawing_segment_per_layer(self, tiny_dataset, fanouts):
        graph = tiny_dataset.graph
        leaves = np.flatnonzero(graph.in_degree() == 0)[:2]  # segments that never draw
        batches = [tiny_dataset.train_idx[k : k + 2] for k in range(0, 8, 2)]
        batches += [leaves[:1], tiny_dataset.train_idx[8:9], leaves[1:]]
        sampler = NeighborSampler(fanouts)
        rngs = [RecordingGenerator(k) for k in range(len(batches))]
        sampler.sample_merged(graph, batches, rngs)
        for k, (seeds, rng) in enumerate(zip(batches, rngs)):
            solo = sampler.sample(graph, seeds, rng=RecordingGenerator(k))
            frontiers = [b.dst_ids for b in solo.blocks[::-1]]
            want = expected_highs(graph, frontiers, fanouts)
            assert len(rng.highs) == len(want)
            for got, high in zip(rng.highs, want):
                np.testing.assert_array_equal(got, high)
            self.assert_stream_is_the_logged_calls(rng)
        assert rngs[4].highs == rngs[6].highs == []  # the zero-degree seeds
        assert any(rng.highs for rng in rngs)

    def test_shadow_hops_follow_the_same_contract(self, tiny_dataset):
        graph = tiny_dataset.graph
        batches = [tiny_dataset.train_idx[k : k + 3] for k in range(0, 9, 3)]
        rngs = [RecordingGenerator(k) for k in range(len(batches))]
        ShadowSampler([10, 5], num_layers=2).sample_merged(graph, batches, rngs)
        for rng in rngs:
            assert 1 <= len(rng.highs) <= 2
            for high in rng.highs:
                assert high.ndim == 2 and high.shape[1] in (10, 5)
            self.assert_stream_is_the_logged_calls(rng)

    def test_no_drawing_node_means_no_call(self):
        graph = star(3)
        rng = RecordingGenerator(0)
        NeighborSampler([3, 3]).sample(graph, np.array([0, 1]), rng=rng)
        assert rng.highs == []
        self.assert_stream_is_the_logged_calls(rng)
