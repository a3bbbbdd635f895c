"""Block / MiniBatch invariants."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.sampling.block import Block, MiniBatch


def make_block(num_dst=2, extra=1, edges=((2, 0), (1, 1))):
    src_ids = np.arange(10, 10 + num_dst + extra)
    e_src = np.array([e[0] for e in edges])
    e_dst = np.array([e[1] for e in edges])
    return Block(src_ids=src_ids, num_dst=num_dst, edge_src=e_src, edge_dst=e_dst)


class TestBlock:
    def test_counts(self):
        b = make_block()
        assert b.num_src == 3
        assert b.num_dst == 2
        assert b.num_edges == 2

    def test_dst_prefix(self):
        b = make_block()
        np.testing.assert_array_equal(b.dst_ids, b.src_ids[:2])
        b.validate_prefix()

    def test_rejects_num_dst_too_large(self):
        with pytest.raises(ValueError):
            Block(np.arange(2), 3, np.array([]), np.array([]))

    def test_rejects_edge_src_out_of_range(self):
        with pytest.raises(ValueError):
            Block(np.arange(3), 2, np.array([5]), np.array([0]))

    def test_rejects_edge_dst_beyond_prefix(self):
        with pytest.raises(ValueError):
            Block(np.arange(3), 2, np.array([0]), np.array([2]))

    def test_rejects_edge_length_mismatch(self):
        with pytest.raises(ValueError):
            Block(np.arange(3), 2, np.array([0, 1]), np.array([0]))

    def test_empty_edges_ok(self):
        b = Block(np.arange(3), 2, np.array([]), np.array([]))
        assert b.num_edges == 0


class TestMemo:
    """Derived data lives with the block and nowhere else."""

    def test_built_once_per_key(self):
        b, calls = make_block(), []

        def build():
            calls.append(1)
            return object()

        first = b.memo("k", build)
        assert b.memo("k", build) is first and calls == [1]
        assert b.memo("other", build) is not first and calls == [1, 1]

    @pytest.mark.parametrize(
        "clone", [lambda b: pickle.loads(pickle.dumps(b)), copy.deepcopy, copy.copy]
    )
    def test_copies_carry_no_memo(self, clone):
        b = make_block()
        b.memo("k", lambda: np.ones(3))
        twin = clone(b)
        assert twin._memo == {} and "k" in b._memo
        for name in ("src_ids", "edge_src", "edge_dst"):
            np.testing.assert_array_equal(getattr(twin, name), getattr(b, name))
        assert twin.num_dst == b.num_dst

    def test_eq_and_repr_ignore_the_memo(self):
        b = make_block()
        twin = dataclasses.replace(b)
        before = repr(b)
        b.memo("k", lambda: 1)
        assert repr(b) == before and "_memo" not in before
        assert b == twin

    def test_not_a_constructor_field(self):
        assert "_memo" not in [f.name for f in dataclasses.fields(Block) if f.init]
        with pytest.raises(TypeError):
            Block(np.arange(3), 2, np.array([0]), np.array([0]), _memo={})


class TestMiniBatch:
    def test_requires_blocks(self):
        with pytest.raises(ValueError):
            MiniBatch(seeds=np.array([1]), blocks=[])

    def test_last_block_must_target_seeds(self):
        b = make_block()
        with pytest.raises(ValueError):
            MiniBatch(seeds=np.array([99]), blocks=[b])

    def test_counters(self):
        b = make_block()
        mb = MiniBatch(seeds=b.dst_ids, blocks=[b])
        assert mb.total_edges == 2
        assert mb.total_src_nodes == 3
        assert mb.num_layers == 1
        np.testing.assert_array_equal(mb.input_ids, b.src_ids)
