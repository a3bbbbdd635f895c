"""Differentiable segment aggregation (the SpMM of DGL's backend).

Message passing over a block with edges ``(src_idx[e], dst_idx[e])`` is a
gather (``h[src_idx]``) followed by a segment reduction onto destination
rows — equivalently an SpMM with the block's (sparse) adjacency, and
computed as one: an :class:`~repro.autograd.ops.EdgeOperator` never
materialises the ``(E, F)`` messages, sums every destination in edge
order (so the bits are those of the gather → scatter-add it replaced),
and its gradient is the transposed product.

A sampled block's operator is built once: :func:`block_concat_mean`
(GraphSAGE) and :func:`block_gcn_sum` (GCN) keep it, with SAGE's
inverse in-degrees or GCN's normalisation coefficients, in the block's
memo (:meth:`repro.sampling.block.Block.memo`).  Every layer that shares
the block — ShaDow's stack runs all but its last layer on one block —
and every backward pass through them reuse that one operator; the
transposed matrix is built on the first backward only.  SAGE's
``h_dst || mean`` is one tape node (:func:`repro.autograd.ops.concat_mean`)
that keeps only the operator and the inverse in-degrees for its backward.
:func:`aggregate_mean`/:func:`aggregate_sum` take raw edge arrays and
build a one-shot operator per call.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.autograd.ops import EdgeOperator, concat_mean, mul, sparse_product, spmm
from repro.sampling.block import Block

__all__ = [
    "aggregate_sum",
    "aggregate_mean",
    "block_concat_mean",
    "block_gcn_sum",
    "gcn_norm_coefficients",
]


def _check_edges(src_idx, dst_idx, num_src, num_dst, validate: bool = True):
    """Coerce edge index arrays, optionally verifying their ranges.

    This is the aggregation's one range check (the sparse product is
    then run unchecked).  ``validate=False`` skips the per-edge
    ``min()``/``max()`` scans — a hot-path saving for trusted callers
    whose edges were already range-checked at construction
    (``Block.__post_init__`` validates every sampler-produced block).
    The sparse kernel does no bounds checking of its own: an unchecked
    out-of-range edge reads or writes out of bounds.
    """
    src_idx = np.asarray(src_idx, dtype=np.int64)
    dst_idx = np.asarray(dst_idx, dtype=np.int64)
    if src_idx.shape != dst_idx.shape or src_idx.ndim != 1:
        raise ValueError("src_idx/dst_idx must be 1-D arrays of equal length")
    if validate and len(src_idx):
        if src_idx.min() < 0 or src_idx.max() >= num_src:
            raise ValueError("src_idx out of range")
        if dst_idx.min() < 0 or dst_idx.max() >= num_dst:
            raise ValueError("dst_idx out of range")
    return src_idx, dst_idx


def _mean_operator(src_idx, dst_idx, num_src, num_dst, dtype):
    """The unweighted sum operator and the ``(num_dst, 1)`` inverse in-degrees.

    The inverse in-degrees are float32 whatever ``dtype``: the mean has
    always scaled by them through ``ops.mul``, which takes a raw array
    as a float32 constant, so a float64 mean multiplies by the float32
    rounding of ``1/deg``.
    """
    op = EdgeOperator(dst_idx, src_idx, (num_dst, num_src), dtype=dtype)
    counts = np.bincount(dst_idx, minlength=num_dst).astype(dtype)
    inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    return op, inv[:, None].astype(np.float32)


def aggregate_sum(
    h_src: Tensor,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    num_dst: int,
    edge_weight: np.ndarray | None = None,
    *,
    validate: bool = True,
) -> Tensor:
    """Weighted segment sum: ``out[v] = sum_e w_e * h_src[src_idx[e]]``.

    ``edge_weight`` (shape ``(E,)``) is a constant — gradients do not flow
    into it (GCN normalisation coefficients are data, not parameters).
    ``validate=False`` skips edge-range checks for pre-validated edges.
    """
    src_idx, dst_idx = _check_edges(src_idx, dst_idx, len(h_src.data), num_dst, validate)
    return spmm(h_src, dst_idx, src_idx, num_dst, edge_weight, validate=False)


def aggregate_mean(
    h_src: Tensor,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    num_dst: int,
    *,
    validate: bool = True,
) -> Tensor:
    """Segment mean over in-neighbours; zero rows for isolated destinations.

    ``validate=False`` skips edge-range checks for pre-validated edges.
    """
    src_idx, dst_idx = _check_edges(src_idx, dst_idx, len(h_src.data), num_dst, validate)
    op, inv = _mean_operator(src_idx, dst_idx, len(h_src.data), num_dst, h_src.data.dtype)
    return mul(sparse_product(op, h_src), inv)


def block_concat_mean(block: Block, h_src: Tensor) -> Tensor:
    """GraphSAGE's ``h_dst || mean(h_src over in-neighbours)`` over ``block``.

    One :func:`~repro.autograd.ops.concat_mean` node on the block's
    memoised mean operator: the destination rows are the prefix of
    ``h_src`` (or :attr:`Block.dst_positions` for a merged block), the
    neighbour mean is :func:`aggregate_mean`'s, bit for bit.  ``h_src``
    must hold one row per source node (the caller checks); the block's
    edges were range-checked at construction.
    """
    dtype = h_src.data.dtype
    op, inv = block.memo(
        ("mean", dtype),
        lambda: _mean_operator(
            block.edge_src, block.edge_dst, block.num_src, block.num_dst, dtype
        ),
    )
    positions = None if block.dst_splits is None else block.dst_positions
    return concat_mean(h_src, op, inv, positions)


def block_gcn_sum(block: Block, h_src: Tensor) -> Tensor:
    """GCN-normalised :func:`aggregate_sum` over ``block``, operator memoised.

    The coefficients (:func:`gcn_norm_coefficients`) are computed once
    per block, with the operator they weight.
    """
    dtype = h_src.data.dtype

    def build():
        coeff = gcn_norm_coefficients(
            block.edge_src, block.edge_dst, block.num_src, block.num_dst
        )
        shape = (block.num_dst, block.num_src)
        return EdgeOperator(block.edge_dst, block.edge_src, shape, coeff, dtype=dtype)

    return sparse_product(block.memo(("gcn", dtype), build), h_src)


def gcn_norm_coefficients(
    src_idx: np.ndarray, dst_idx: np.ndarray, num_src: int, num_dst: int
) -> np.ndarray:
    """Symmetric GCN normalisation ``1/sqrt(d_out(u) * d_in(v))`` per edge.

    Degrees are computed *within the block* (the standard mini-batch
    approximation of the paper's Eq. (1) whole-graph degrees).  Nodes with
    zero degree get coefficient 0.
    """
    src_idx = np.asarray(src_idx, dtype=np.int64)
    dst_idx = np.asarray(dst_idx, dtype=np.int64)
    d_out = np.bincount(src_idx, minlength=num_src).astype(np.float64)
    d_in = np.bincount(dst_idx, minlength=num_dst).astype(np.float64)
    denom = np.sqrt(d_out[src_idx] * d_in[dst_idx])
    with np.errstate(divide="ignore"):
        coeff = np.where(denom > 0, 1.0 / denom, 0.0)
    return coeff.astype(np.float32)
