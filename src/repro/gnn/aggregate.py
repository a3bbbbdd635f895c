"""Differentiable segment aggregation (the SpMM of DGL's backend).

Message passing over a block with edges ``(src_idx[e], dst_idx[e])`` is a
gather (``h[src_idx]``) followed by a segment reduction onto destination
rows — equivalently an SpMM with the block's (sparse) adjacency, and
computed as one: :func:`repro.autograd.ops.spmm` never materialises the
``(E, F)`` messages, sums every destination in edge order (so the bits
are those of the gather → scatter-add it replaced), and its gradient is
the transposed product.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor
from repro.autograd.ops import mul, spmm

__all__ = ["aggregate_sum", "aggregate_mean", "gcn_norm_coefficients"]


def _check_edges(src_idx, dst_idx, num_src, num_dst, validate: bool = True):
    """Coerce edge index arrays, optionally verifying their ranges.

    This is the aggregation's one range check (``spmm`` is then called
    unchecked).  ``validate=False`` skips the per-edge ``min()``/``max()``
    scans — a hot-path saving for trusted callers whose edges were
    already range-checked at construction (``Block.__post_init__``
    validates every sampler-produced block and the GNN layers match
    ``h_src`` to ``block.num_src``, so they pass ``validate=False``).
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
    ``validate=False`` skips edge-range checks for pre-validated blocks.
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

    ``validate=False`` skips edge-range checks for pre-validated blocks.
    """
    src_idx, dst_idx = _check_edges(src_idx, dst_idx, len(h_src.data), num_dst, validate)
    summed = spmm(h_src, dst_idx, src_idx, num_dst, validate=False)
    counts = np.bincount(dst_idx, minlength=num_dst).astype(h_src.data.dtype)
    inv = np.where(counts > 0, 1.0 / np.maximum(counts, 1.0), 0.0)
    return mul(summed, inv[:, None])


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
