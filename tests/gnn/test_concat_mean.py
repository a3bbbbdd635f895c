"""SAGE's concat-mean node against the unfused chain, bit for bit.

``aggregate.block_concat_mean`` writes ``h_dst || mean(h_src)`` into one
buffer through one tape node (``ops.concat_mean``).  Its oracle is the
chain GraphSAGE ran before: ``gather_rows`` of the destination rows,
the mean aggregation (``sparse_product`` scaled by the inverse
in-degrees) and ``concat``.  The forward output and the gradient wrt
``h_src`` are compared on raw bit patterns, with an upstream gradient
salted with -0.0 (the chain's scatter-add maps a -0.0 sum to +0.0) and
NaN.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import ops
from repro.autograd.tensor import Tensor
from repro.gnn.aggregate import aggregate_mean, block_concat_mean
from repro.sampling.block import Block
from repro.utils.rng import derive_rng

from tests.autograd.test_spmm import assert_same_bits, features

WIDTH = 7


def prefix_block(rng) -> Block:
    """60 sources, 25 destinations; destinations 20.. have no in-edges,
    sources 0..4 no out-edges (their gradient is ``0 + g_left``)."""
    num_src, num_dst, num_edges = 60, 25, 300
    dst = np.sort(rng.integers(0, 20, num_edges))
    return Block(np.arange(num_src), num_dst, rng.integers(5, num_src, num_edges), dst)


def merged_block(rng) -> Block:
    """Three request segments, each with its destinations at the head of
    its own source rows, its last destination without in-edges and its
    first two sources without out-edges."""
    src_splits, dst_splits = [0, 20, 45, 60], [0, 8, 18, 25]
    edge_src, edge_dst = [], []
    for s0, s1, d0, d1 in zip(src_splits[:-1], src_splits[1:], dst_splits[:-1], dst_splits[1:]):
        dst = np.sort(rng.integers(d0, d1 - 1, 80))
        edge_src.append(rng.integers(s0 + 2, s1, len(dst)))
        edge_dst.append(dst)
    return Block(
        np.arange(60),
        25,
        np.concatenate(edge_src),
        np.concatenate(edge_dst),
        src_splits=src_splits,
        dst_splits=dst_splits,
    )


BLOCKS = {"prefix": prefix_block, "merged": merged_block}


def unfused(block, h):
    h_self = ops.gather_rows(h, block.dst_positions)
    h_neigh = aggregate_mean(h, block.edge_src, block.edge_dst, block.num_dst)
    return ops.concat([h_self, h_neigh], axis=-1)


def run(forward, block, dtype):
    """(output, d h_src) of one forward+backward."""
    rng = derive_rng(12, "concat-mean", str(np.dtype(dtype)))
    h = Tensor(features(rng, (block.num_src, WIDTH), dtype), requires_grad=True)
    out = forward(block, h)
    upstream = features(rng, out.shape, dtype)
    upstream[rng.random(out.shape) < 0.03] = np.nan
    kept = upstream.copy()
    out.backward(upstream)
    assert_same_bits(upstream, kept)
    return out.data, h.grad


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", sorted(BLOCKS))
def test_node_equals_the_unfused_chain_bitwise(layout, dtype):
    block = BLOCKS[layout](derive_rng(13, layout))
    got = run(block_concat_mean, block, dtype)
    want = run(unfused, block, dtype)
    # the isolated destinations (inv = 0) get a +0.0 mean half
    isolated = np.bincount(block.edge_dst, minlength=block.num_dst) == 0
    assert isolated.sum() >= 3
    assert_same_bits(got[0][isolated, WIDTH:], np.zeros((isolated.sum(), WIDTH), dtype))
    for g, w in zip(got, want):
        assert_same_bits(g, w)
    # the upstream -0.0s on rows without out-edges come back as +0.0
    grad = got[1]
    assert np.any(grad == 0.0) and not np.any(np.signbit(grad) & (grad == 0.0))


def test_backward_builds_no_operator(monkeypatch):
    """The destination rows' gradient is added in place: no scatter
    operator per step, and the block's one mean operator only gains its
    transpose."""
    block = prefix_block(derive_rng(16))
    h = Tensor(features(derive_rng(17), (block.num_src, WIDTH), np.float32), requires_grad=True)
    out = block_concat_mean(block, h)
    built = []

    class Recording(ops.EdgeOperator):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(ops, "EdgeOperator", Recording)
    out.backward(np.ones(out.shape, np.float32))
    assert built == []
    assert h.grad is not None and out._parents is None
