"""The scatter-reduction kernel against its ``np.add.at`` oracle, bit for bit.

``ops.spmm``, the block aggregations and ``gather_rows``' backward all
run on one sparse-product path, ``ops.EdgeOperator``.  Every training
trajectory and serving
parity guarantee in this repo was pinned on ``np.add.at``'s summation
order (each output row accumulates its edges sequentially, in edge
order), so the oracle below *is* that loop and every comparison is on
the raw bit patterns — a host whose scipy rounds differently (say, a
build that contracts ``y += a * x`` into an FMA) fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from scipy.sparse import csc_matrix, csr_matrix

from repro.autograd import ops
from repro.autograd.ops import EdgeOperator
from repro.autograd.tensor import Tensor
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.shadow import ShadowSampler
from repro.utils.rng import derive_rng

from tests.autograd.test_gradcheck import check_op

UINT = {np.dtype(np.float32): np.uint32, np.dtype(np.float64): np.uint64}


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    view = UINT[got.dtype]
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(view), np.ascontiguousarray(want).view(view)
    )


def scatter_oracle(x, index, num_rows):
    out = np.zeros((num_rows,) + x.shape[1:], dtype=x.dtype)
    np.add.at(out, index, x)
    return out


def spmm_oracle(h, rows, cols, num_rows, weight=None):
    """The gather -> scale -> ``np.add.at`` pipeline ``spmm`` replaced."""
    messages = h[cols]
    if weight is not None:
        messages = messages * weight.astype(h.dtype)[:, None]
    return scatter_oracle(messages, rows, num_rows)


def run_spmm(h, rows, cols, num_rows, weight=None):
    """(forward, gradient wrt ``h`` under a random upstream gradient)."""
    t = Tensor(h, requires_grad=True)
    out = ops.spmm(t, rows, cols, num_rows, weight)
    upstream = derive_rng(7, "upstream").standard_normal(out.shape).astype(h.dtype)
    out.backward(upstream)
    return out.data, t.grad, upstream


def check_spmm(h, rows, cols, num_rows, weight=None):
    fwd, grad, upstream = run_spmm(h, rows, cols, num_rows, weight)
    assert_same_bits(fwd, spmm_oracle(h, rows, cols, num_rows, weight))
    # the VJP is the transposed product, summed in the same edge order
    assert_same_bits(grad, spmm_oracle(upstream, cols, rows, len(h), weight))


def features(rng, shape, dtype):
    """Normal features salted with signed zeros (``0.0 + -0.0`` is order-sensitive)."""
    x = rng.standard_normal(shape).astype(dtype)
    x[rng.random(shape) < 0.05] = -0.0
    x[rng.random(shape) < 0.05] = 0.0
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 47, 100, 128])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("layout", ["sorted", "unsorted", "duplicates"])
def test_spmm_matches_add_at_bitwise(dtype, width, weighted, layout):
    rng = derive_rng(0, "spmm", width, layout)
    num_src, num_dst, num_edges = 211, 97, 4000
    # destinations 90.. stay isolated: their rows must come out +0.0
    rows = rng.integers(0, 90, num_edges)
    cols = rng.integers(0, num_src, num_edges)
    if layout == "sorted":
        rows = np.sort(rows)
    elif layout == "duplicates":
        rows, cols = np.repeat(rows[:500], 8), np.repeat(cols[:500], 8)
    h = features(rng, (num_src, width), dtype)
    weight = rng.random(num_edges).astype(np.float32) if weighted else None
    check_spmm(h, rows, cols, num_dst, weight)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 47, 128])
@pytest.mark.parametrize("sort", [True, False])
def test_gather_backward_matches_add_at_bitwise(dtype, width, sort):
    rng = derive_rng(0, "scatter", width, sort)
    index = rng.integers(0, 60, 3000)
    if sort:
        index = np.sort(index)
    x = features(rng, (3000, width), dtype)
    # gather_rows' backward scatters the upstream rows back by the same index
    src = Tensor(features(rng, (75, width), dtype), requires_grad=True)
    ops.gather_rows(src, index).backward(x)
    assert_same_bits(src.grad, scatter_oracle(x, index, 75))


def test_gather_backward_keeps_trailing_shape():
    rng = derive_rng(0, "trailing")
    index = rng.integers(0, 5, 40)
    for shape in [(40,), (40, 3, 2)]:
        x = rng.standard_normal(shape).astype(np.float32)
        src = Tensor(np.zeros((6,) + shape[1:], dtype=np.float32), requires_grad=True)
        ops.gather_rows(src, index).backward(x)
        assert_same_bits(src.grad, scatter_oracle(x, index, 6))


def test_no_edges_gives_zero_rows():
    h = Tensor(np.ones((4, 3), dtype=np.float32), requires_grad=True)
    empty = np.empty(0, dtype=np.int64)
    out = ops.spmm(h, empty, empty, 5)
    assert out.shape == (5, 3) and out.dtype == np.float32 and not out.data.any()
    out.sum().backward()
    assert h.grad.shape == (4, 3) and not h.grad.any()
    src = Tensor(np.ones((2, 3)), requires_grad=True)
    ops.gather_rows(src, empty).backward(np.zeros((0, 3)))
    assert src.grad.shape == (2, 3) and not src.grad.any()


@pytest.mark.parametrize(
    "rows, cols",
    [([0, 3], [0, 1]), ([0, -1], [0, 1]), ([0, 1], [0, 4]), ([0, 1], [-1, 0])],
)
def test_spmm_rejects_out_of_range_indices(rows, cols):
    # scipy's kernels would read or write out of bounds; numpy's raised
    with pytest.raises(IndexError):
        ops.spmm(Tensor(np.ones((4, 2))), np.array(rows), np.array(cols), 3)


def test_gather_rejects_out_of_range_indices():
    # forward and backward agree: a negative index is refused at the call
    # site, not wrapped by the forward and rejected by the backward
    src = Tensor(np.ones((3, 2)), requires_grad=True)
    for bad in ([0, -1], [0, 3]):
        with pytest.raises(IndexError):
            ops.gather_rows(src, np.array(bad))


def test_indices_are_range_checked_once(monkeypatch):
    """One scan per index array per op, in the forward only; the
    aggregation ops scan in ``_check_edges`` (or, for a pre-validated
    block, not at all) and call ``spmm`` unchecked."""
    from repro.gnn.aggregate import aggregate_mean, aggregate_sum

    scans = []
    check = ops._check_index

    def counting_check(index, bound, what):
        scans.append(what)
        check(index, bound, what)

    monkeypatch.setattr(ops, "_check_index", counting_check)
    rows, cols = np.array([0, 2, 2]), np.array([1, 0, 3])
    h = Tensor(np.ones((4, 2), dtype=np.float32), requires_grad=True)
    out = ops.spmm(h, rows, cols, 3)
    assert scans == ["row index", "column index"]
    out.sum().backward()
    ops.gather_rows(h, cols).sum().backward()
    assert len(scans) == 3
    del scans[:]
    for kwargs in ({}, {"validate": False}):
        assert_same_bits(aggregate_sum(h, cols, rows, 3, **kwargs).data, out.data)
        aggregate_mean(h, cols, rows, 3, **kwargs).sum().backward()
    assert_same_bits(ops.spmm(h, rows, cols, 3, validate=False).data, out.data)
    assert scans == []


def test_spmm_rejects_mismatched_arguments():
    h = Tensor(np.ones((4, 2)))
    with pytest.raises(ValueError):
        ops.spmm(h, np.array([0, 1]), np.array([0]), 3)
    with pytest.raises(ValueError):
        ops.spmm(h, np.array([0, 1]), np.array([0, 1]), 3, weight=np.ones(3))


def test_spmm_gradcheck():
    rng = derive_rng(0, "gradcheck")
    rows, cols = rng.integers(0, 4, 12), rng.integers(0, 5, 12)
    weight = rng.random(12)
    check_op(lambda t: ops.spmm(t, rows, cols, 4), rng.standard_normal((5, 3)))
    check_op(lambda t: ops.spmm(t, rows, cols, 4, weight), rng.standard_normal((5, 3)))


# ----------------------------------------------------------------------
# real sampler blocks, at the parity suites' shapes
# ----------------------------------------------------------------------


def sampled_blocks(ds):
    """Neighbour, ShaDow and fused multi-request blocks of one dataset."""
    graph = ds.graph
    seeds = derive_rng(0, "seeds").choice(ds.num_nodes, 64, replace=False)
    requests = [np.array([n]) for n in seeds[:8]]
    rngs = [derive_rng(0, "serve", int(n)) for n in seeds[:8]]
    neighbor, shadow = NeighborSampler([15, 10, 5]), ShadowSampler([10, 5])
    yield from neighbor.sample(graph, seeds, rng=derive_rng(0, "n")).blocks
    yield from shadow.sample(graph, seeds, rng=derive_rng(0, "s")).blocks[:1]
    yield from neighbor.sample_merged(graph, requests, rngs).blocks
    yield from shadow.sample_merged(graph, requests, rngs).blocks[:1]


def test_sampler_blocks_match_add_at_bitwise(tiny_dataset):
    rng = derive_rng(0, "blocks")
    count = 0
    for block in sampled_blocks(tiny_dataset):
        h = features(rng, (block.num_src, tiny_dataset.spec.feature_dim), np.float32)
        weight = rng.random(block.num_edges).astype(np.float32)
        check_spmm(h, block.edge_dst, block.edge_src, block.num_dst)
        check_spmm(h, block.edge_dst, block.edge_src, block.num_dst, weight)
        count += 1
    assert count == 8


def test_sampler_blocks_are_destination_major(tiny_dataset):
    """Every sampler block takes ``EdgeOperator``'s sorted-edge
    construction: destinations never decrease along the edge list."""
    for block in sampled_blocks(tiny_dataset):
        assert np.all(np.diff(block.edge_dst) >= 0)


# ----------------------------------------------------------------------
# EdgeOperator: both products and both constructions
# ----------------------------------------------------------------------


def csc_route(data, rows, cols, shape):
    """The one construction every product used before sorted edge lists
    were recognised: one CSC column per edge, ``tocsr()``, relabelled."""
    num_edges = len(rows)
    mat = csc_matrix((data, rows, np.arange(num_edges + 1)), shape=(shape[0], num_edges)).tocsr()
    return csr_matrix((mat.data, cols[mat.indices], mat.indptr), shape=shape)


def assert_same_matrix(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert got.shape == want.shape


def salted(rng, shape, dtype):
    """``features`` plus NaNs (a NaN row must poison exactly its sums)."""
    x = features(rng, shape, dtype)
    x[rng.random(shape) < 0.01] = np.nan
    return x


def edge_list(layout, rng, num_src=211, num_dst=97, num_edges=4000):
    # destinations 90.. stay isolated: their rows must come out +0.0
    rows = rng.integers(0, 90, num_edges)
    cols = rng.integers(0, num_src, num_edges)
    if layout.endswith("duplicates"):
        rows, cols = np.repeat(rows[:500], 8), np.repeat(cols[:500], 8)
    if layout.startswith("sorted"):
        order = np.argsort(rows, kind="stable")
        rows, cols = rows[order], cols[order]
    if layout == "empty":
        rows, cols = rows[:0], cols[:0]
    return rows, cols, num_src, num_dst


LAYOUTS = ["sorted", "unsorted", "sorted_duplicates", "unsorted_duplicates", "empty"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 47, 128])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_edge_operator_matches_add_at_bitwise(dtype, width, weighted, layout):
    rng = derive_rng(0, "edge-operator", width, layout, weighted)
    rows, cols, num_src, num_dst = edge_list(layout, rng)
    weight = rng.random(len(rows)).astype(np.float32) if weighted else None
    op = EdgeOperator(rows, cols, (num_dst, num_src), weight, dtype=dtype)
    h, g = salted(rng, (num_src, width), dtype), salted(rng, (num_dst, width), dtype)
    w = None if weight is None else weight.astype(dtype)
    assert_same_bits(op.matmul(h), spmm_oracle(h, rows, cols, num_dst, w))
    assert_same_bits(op.rmatmul(g), spmm_oracle(g, cols, rows, num_src, w))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_sorted_construction_equals_the_csc_route(weighted, layout):
    """The sorted-edge CSR and its ``A.T.tocsr()`` transpose are array for
    array the matrices the CSC route builds (same entries, same order,
    same index dtypes); unsorted edges take the CSC route itself."""
    rng = derive_rng(0, "construction", layout, weighted)
    rows, cols, num_src, num_dst = edge_list(layout, rng)
    data = rng.random(len(rows)).astype(np.float32) if weighted else np.ones(len(rows), np.float32)
    op = EdgeOperator(rows, cols, (num_dst, num_src), data if weighted else None)
    assert_same_matrix(op._forward, csc_route(data, rows, cols, (num_dst, num_src)))
    assert_same_matrix(op.transpose, csc_route(data, cols, rows, (num_src, num_dst)))


def test_sampler_block_operators_equal_the_csc_route(tiny_dataset):
    rng = derive_rng(0, "block-construction")
    for block in sampled_blocks(tiny_dataset):
        rows, cols = block.edge_dst, block.edge_src
        shape = (block.num_dst, block.num_src)
        weight = rng.random(block.num_edges).astype(np.float32)
        op = EdgeOperator(rows, cols, shape, weight)
        assert_same_matrix(op._forward, csc_route(weight, rows, cols, shape))
        assert_same_matrix(op.transpose, csc_route(weight, cols, rows, shape[::-1]))


@pytest.mark.parametrize("layout", ["sorted", "unsorted"])
def test_transpose_is_built_once_on_first_use(layout):
    rng = derive_rng(0, "lazy", layout)
    rows, cols, num_src, num_dst = edge_list(layout, rng)
    op = EdgeOperator(rows, cols, (num_dst, num_src))
    op.matmul(np.ones((num_src, 3), dtype=np.float32))
    assert op._transpose is None
    first = op.transpose
    op.rmatmul(np.ones((num_dst, 3), dtype=np.float32))
    assert op.transpose is first


def test_sparse_product_reuses_one_operator():
    """Forward and backward of every product go through the same
    prebuilt operator; gradients accumulate as for per-call ``spmm``."""
    rng = derive_rng(0, "reuse")
    rows, cols, num_src, num_dst = edge_list("sorted", rng)
    op = EdgeOperator(rows, cols, (num_dst, num_src))
    h = Tensor(features(rng, (num_src, 8), np.float32), requires_grad=True)
    a, b = ops.sparse_product(op, h), ops.sparse_product(op, h)
    upstream = features(rng, (num_dst, 8), np.float32)
    ops.add(a, b).backward(upstream)
    once = spmm_oracle(upstream, cols, rows, num_src)
    assert_same_bits(a.data, spmm_oracle(h.data, rows, cols, num_dst))
    assert_same_bits(h.grad, once + once)


def test_sparse_product_rejects_a_shape_mismatch():
    op = EdgeOperator(np.array([0, 1]), np.array([2, 0]), (2, 3))
    with pytest.raises(ValueError):
        ops.sparse_product(op, Tensor(np.ones((4, 2), dtype=np.float32)))
