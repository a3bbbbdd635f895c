"""Neighbour sampler: fanout bounds, block chaining, uniformity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.build import from_edge_index
from repro.sampling import SAMPLER_REGISTRY, make_sampler
from repro.sampling.neighbor import NeighborSampler, sample_neighbors_uniform
from repro.utils.rng import derive_rng


def star_graph(leaves=20):
    """Node 0 has `leaves` in-neighbours 1..leaves."""
    src = np.arange(1, leaves + 1)
    dst = np.zeros(leaves, dtype=np.int64)
    return from_edge_index(src, dst, leaves + 1)


class TestSampleNeighborsUniform:
    def test_fanout_respected(self):
        g = star_graph(20)
        src, dst_pos = sample_neighbors_uniform(g, np.array([0]), 5, derive_rng(0))
        assert len(src) == 5
        assert np.all(dst_pos == 0)

    def test_without_replacement(self):
        g = star_graph(20)
        src, _ = sample_neighbors_uniform(g, np.array([0]), 10, derive_rng(0))
        assert len(np.unique(src)) == 10

    def test_low_degree_keeps_all(self):
        g = star_graph(3)
        src, _ = sample_neighbors_uniform(g, np.array([0]), 10, derive_rng(0))
        assert sorted(src.tolist()) == [1, 2, 3]

    def test_isolated_node(self):
        g = star_graph(3)
        src, dst_pos = sample_neighbors_uniform(g, np.array([1]), 5, derive_rng(0))
        assert len(src) == 0
        assert len(dst_pos) == 0

    def test_sampled_edges_are_real(self, tiny_dataset):
        g = tiny_dataset.graph
        nodes = tiny_dataset.train_idx[:50]
        src, dst_pos = sample_neighbors_uniform(g, nodes, 5, derive_rng(1))
        for s, dpos in zip(src, dst_pos):
            assert s in g.neighbors(nodes[dpos])

    def test_approximately_uniform(self):
        """Over many draws each of 10 neighbours appears ~equally often."""
        g = star_graph(10)
        counts = np.zeros(11)
        rng = derive_rng(7)
        for _ in range(400):
            src, _ = sample_neighbors_uniform(g, np.array([0]), 3, rng)
            counts[src] += 1
        picked = counts[1:]
        assert picked.min() > 0.6 * picked.mean()
        assert picked.max() < 1.4 * picked.mean()

    def test_rejects_bad_fanout(self):
        with pytest.raises(ValueError):
            sample_neighbors_uniform(star_graph(3), np.array([0]), 0, derive_rng(0))


class TestNeighborSampler:
    def test_rejects_empty_fanouts(self):
        with pytest.raises(ValueError):
            NeighborSampler([])

    def test_rejects_empty_seeds(self, tiny_dataset):
        with pytest.raises(ValueError):
            NeighborSampler([5]).sample(tiny_dataset.graph, np.array([], dtype=np.int64))

    def test_rejects_duplicate_seeds(self, tiny_dataset):
        with pytest.raises(ValueError):
            NeighborSampler([5]).sample(tiny_dataset.graph, np.array([1, 1]))

    def test_block_count_matches_layers(self, tiny_dataset):
        mb = NeighborSampler([5, 4, 3]).sample(
            tiny_dataset.graph, tiny_dataset.train_idx[:8], rng=derive_rng(0)
        )
        assert mb.num_layers == 3

    def test_last_block_targets_seeds(self, tiny_dataset):
        seeds = tiny_dataset.train_idx[:8]
        mb = NeighborSampler([5, 4, 3]).sample(tiny_dataset.graph, seeds, rng=derive_rng(0))
        np.testing.assert_array_equal(mb.blocks[-1].dst_ids, seeds)

    def test_blocks_chain(self, tiny_dataset):
        mb = NeighborSampler([5, 4, 3]).sample(
            tiny_dataset.graph, tiny_dataset.train_idx[:8], rng=derive_rng(0)
        )
        for inner, outer in zip(mb.blocks, mb.blocks[1:]):
            assert inner.num_dst == outer.num_src
            np.testing.assert_array_equal(inner.dst_ids, outer.src_ids)

    def test_prefix_convention_everywhere(self, tiny_dataset):
        mb = NeighborSampler([5, 4, 3]).sample(
            tiny_dataset.graph, tiny_dataset.train_idx[:8], rng=derive_rng(0)
        )
        for b in mb.blocks:
            b.validate_prefix()
            assert len(np.unique(b.src_ids)) == len(b.src_ids)

    def test_per_dst_fanout_bound(self, tiny_dataset):
        fanouts = [5, 4, 3]
        mb = NeighborSampler(fanouts).sample(
            tiny_dataset.graph, tiny_dataset.train_idx[:8], rng=derive_rng(0)
        )
        # model-order blocks consume fanouts in reverse walk order: the
        # block closest to the seeds used fanouts[0]
        for block, k in zip(mb.blocks, fanouts[::-1]):
            if block.num_edges == 0:
                continue
            per_dst = np.bincount(block.edge_dst, minlength=block.num_dst)
            assert per_dst.max() <= k

    def test_deterministic_given_rng(self, tiny_dataset):
        seeds = tiny_dataset.train_idx[:8]
        a = NeighborSampler([5, 5]).sample(tiny_dataset.graph, seeds, rng=derive_rng(3))
        b = NeighborSampler([5, 5]).sample(tiny_dataset.graph, seeds, rng=derive_rng(3))
        assert a.total_edges == b.total_edges
        for ba, bb in zip(a.blocks, b.blocks):
            np.testing.assert_array_equal(ba.src_ids, bb.src_ids)
            np.testing.assert_array_equal(ba.edge_src, bb.edge_src)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_property_valid_minibatch(self, batch, fanout):
        from repro.graph.generators import erdos_renyi_graph

        g = erdos_renyi_graph(64, 6.0, rng=derive_rng(batch * 31 + fanout))
        seeds = np.arange(min(batch, g.num_nodes), dtype=np.int64)
        mb = NeighborSampler([fanout, fanout]).sample(g, seeds, rng=derive_rng(0))
        for b in mb.blocks:
            b.validate_prefix()
        assert mb.blocks[0].num_dst == mb.blocks[1].num_src


class TestSamplerRegistry:
    def test_registry_names(self):
        assert set(SAMPLER_REGISTRY) == {"neighbor", "shadow"}

    def test_unknown_sampler(self):
        with pytest.raises(KeyError, match=r"known: \['neighbor', 'shadow'\]"):
            make_sampler("saint-rw")
