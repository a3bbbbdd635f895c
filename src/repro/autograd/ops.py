"""Differentiable primitive operations.

Each op builds the result ``Tensor`` with ``(parent, vjp)`` closures.  VJPs
operate on raw numpy arrays; broadcasting is undone centrally via
:func:`repro.autograd.tensor.unbroadcast`.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

from repro.autograd.tensor import Tensor, is_grad_enabled, unbroadcast

__all__ = [
    "add",
    "sub",
    "mul",
    "div",
    "pow_",
    "matmul",
    "relu",
    "exp",
    "log",
    "concat",
    "gather_rows",
    "spmm",
    "sum_",
    "mean_",
    "reshape",
    "transpose",
    "dropout",
]


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float32))


def _make(data: np.ndarray, parents, op: str) -> Tensor:
    if not is_grad_enabled():
        # forward-only fast path (no_grad / inference_mode): the tape is
        # never consulted, so skip the parent scan entirely
        return Tensor(data, requires_grad=False, _op=op)
    # constants are dropped from the tape: backward would otherwise
    # evaluate their VJP (a full-size product + unbroadcast) and discard it
    parents = [(p, vjp) for p, vjp in parents if p.requires_grad or p._parents]
    return Tensor(data, requires_grad=False, _parents=parents or None, _op=op)


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------
def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _make(
        a.data + b.data,
        [
            (a, lambda g: unbroadcast(g, a.shape)),
            (b, lambda g: unbroadcast(g, b.shape)),
        ],
        "add",
    )
    return out


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _make(
        a.data - b.data,
        [
            (a, lambda g: unbroadcast(g, a.shape)),
            (b, lambda g: unbroadcast(-g, b.shape)),
        ],
        "sub",
    )


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _make(
        a.data * b.data,
        [
            (a, lambda g: unbroadcast(g * b.data, a.shape)),
            (b, lambda g: unbroadcast(g * a.data, b.shape)),
        ],
        "mul",
    )


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    return _make(
        a.data / b.data,
        [
            (a, lambda g: unbroadcast(g / b.data, a.shape)),
            (b, lambda g: unbroadcast(-g * a.data / (b.data**2), b.shape)),
        ],
        "div",
    )


def pow_(a, p: float) -> Tensor:
    a = _wrap(a)
    p = float(p)
    return _make(
        a.data**p,
        [(a, lambda g: g * p * a.data ** (p - 1.0))],
        "pow",
    )


def exp(a) -> Tensor:
    a = _wrap(a)
    out_data = np.exp(a.data)
    return _make(out_data, [(a, lambda g: g * out_data)], "exp")


def log(a) -> Tensor:
    a = _wrap(a)
    return _make(np.log(a.data), [(a, lambda g: g / a.data)], "log")


# ----------------------------------------------------------------------
# linear algebra
# ----------------------------------------------------------------------
def matmul(a, b, *, row_splits=None) -> Tensor:
    """``a @ b``, optionally computed in independent row segments.

    ``row_splits`` (a monotone ``0..len(a)`` offset array) computes the
    product one ``a[s:e] @ b`` slice at a time.  The *values* are the
    same either way in exact arithmetic, but not bit-for-bit: BLAS picks
    different kernels (and accumulation orders) for different row
    counts, so row ``i`` of one big product need not equal row ``i`` of
    a smaller one.  Shared-frontier batched inference
    (:mod:`repro.serve.frontier`) therefore passes each request's
    segment bounds — every slice reproduces the exact call geometry of
    that request's solo forward, which is what makes merged predictions
    bit-identical to per-node inference.  Gradients treat the product
    whole (training never splits rows).
    """
    a, b = _wrap(a), _wrap(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D tensors, got {a.shape} @ {b.shape}")
    if row_splits is None or len(row_splits) <= 2:
        out_data = a.data @ b.data
    else:
        row_splits = np.asarray(row_splits, dtype=np.int64)
        if (
            row_splits[0] != 0
            or row_splits[-1] != len(a.data)
            or np.any(np.diff(row_splits) < 0)
        ):
            raise ValueError(
                f"row_splits must be a monotone 0..{len(a.data)} offset array, "
                f"got [{row_splits[0]}, ..., {row_splits[-1]}]"
            )
        out_data = np.concatenate(
            [a.data[s:e] @ b.data for s, e in zip(row_splits[:-1], row_splits[1:])],
            axis=0,
        )
    return _make(
        out_data,
        [
            (a, lambda g: g @ b.data.T),
            (b, lambda g: a.data.T @ g),
        ],
        "matmul",
    )


def transpose(a) -> Tensor:
    a = _wrap(a)
    return _make(a.data.T, [(a, lambda g: g.T)], "transpose")


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    old_shape = a.shape
    return _make(a.data.reshape(shape), [(a, lambda g: g.reshape(old_shape))], "reshape")


# ----------------------------------------------------------------------
# non-linearities
# ----------------------------------------------------------------------
def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0
    # max(x, 0) that maps NaN to 0 like ``np.where(mask, x, 0.0)`` does;
    # fmax may answer -0.0 for (-0.0, 0), abs settles it on +0.0
    out = np.fmax(a.data, a.data.dtype.type(0), order="C")
    np.abs(out, out=out)
    return _make(out, [(a, lambda g: g * mask)], "relu")


def dropout(a, p: float, *, training: bool = True, rng=None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    a = _wrap(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    mask = (rng.random(a.shape) >= p).astype(a.data.dtype) / (1.0 - p)
    return _make(a.data * mask, [(a, lambda g: g * mask)], "dropout")


# ----------------------------------------------------------------------
# shape combinators
# ----------------------------------------------------------------------
def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` (GraphSAGE's ``h_v || mean(h_u)``)."""
    tensors = [_wrap(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of empty sequence")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def make_vjp(i):
        def vjp(g):
            return np.split(g, splits, axis=axis)[i]

        return vjp

    return _make(data, [(t, make_vjp(i)) for i, t in enumerate(tensors)], "concat")


def _check_index(index: np.ndarray, bound: int, what: str) -> None:
    # _edge_sum's scipy kernels take indices on trust (no bounds checks,
    # no negative wrap-around): each public op range-checks once, in its
    # forward, and its backward reuses the same arrays
    if len(index) and (index.min() < 0 or index.max() >= bound):
        raise IndexError(f"{what} out of range [0, {bound})")


def _edge_sum(
    x: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray | None,
    num_rows: int,
    weight: np.ndarray | None = None,
) -> np.ndarray:
    """``out[rows[e]] += weight[e] * x[cols[e]]``, summed in edge order.

    The one scatter-reduction kernel of the package, run as a sparse
    product ``A @ x`` with one stored entry of ``A`` per edge.
    ``cols=None`` is the identity (``x`` holds one row per edge).

    Every output row accumulates its edges sequentially in ascending
    ``e`` — the summation order of numpy's unbuffered ``ufunc.at``
    scatter-add of ``w * x[cols]`` into ``rows`` — so the result is
    bit-identical to that loop, which the training trajectories and
    every serving parity guarantee were pinned on.
    That rests on how ``A`` is built: as a CSC matrix with one column
    per edge, whose ``tocsr()`` is a stable counting sort that keeps
    duplicates apart and each row's entries in column (= edge) order;
    ``csr_matvecs`` then runs ``y += a * x`` down each row.  Going
    through ``coo_matrix``, ``sum_duplicates`` or ``sort_indices`` would
    merge or reorder entries and change the rounding.

    ``rows`` must lie in ``[0, num_rows)`` and ``cols`` in
    ``[0, len(x))``; nothing here checks (see :func:`_check_index`).
    """
    num_edges = len(rows)
    data = np.ones(num_edges, dtype=x.dtype) if weight is None else weight
    mat = csc_matrix(
        (data, rows, np.arange(num_edges + 1)), shape=(num_rows, num_edges)
    ).tocsr()
    if cols is not None:
        mat = csr_matrix(
            (mat.data, cols[mat.indices], mat.indptr), shape=(num_rows, len(x))
        )
    flat = x.reshape(len(x), int(np.prod(x.shape[1:])))
    return (mat @ flat).reshape((num_rows,) + x.shape[1:])


def gather_rows(a, index: np.ndarray) -> Tensor:
    """Select rows ``a[index]`` (feature lookup for sampled nodes).

    Backward scatter-adds into the source rows — the memory-intensive
    ``aten::index_select`` the paper's Figure 2 highlights.  Indices
    must be non-negative (no numpy wrap-around), forward and backward.
    """
    a = _wrap(a)
    index = np.asarray(index, dtype=np.int64)
    _check_index(index, len(a.data), "row index")
    return _make(
        a.data[index],
        [(a, lambda g: _edge_sum(g, index, None, len(a.data)))],
        "gather_rows",
    )


def spmm(
    h,
    rows: np.ndarray,
    cols: np.ndarray,
    num_rows: int,
    weight=None,
    *,
    validate: bool = True,
) -> Tensor:
    """Sparse-times-dense product ``out[rows[e]] += weight[e] * h[cols[e]]``.

    The fused gather → scale → scatter-add of message passing: no
    ``(E, F)`` message array is materialised.  ``weight`` (shape
    ``(E,)``, default all ones) is a constant; the gradient flows to
    ``h`` only, as the transposed product.  Both directions sum each
    output row in edge order (:func:`_edge_sum`).  ``validate=False``
    skips the index range scans, for a caller that has already checked
    ``rows`` against ``num_rows`` and ``cols`` against ``len(h)``.
    """
    h = _wrap(h)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError("rows/cols must be 1-D arrays of equal length")
    if weight is not None:
        weight = np.asarray(weight, dtype=h.data.dtype)
        if weight.shape != rows.shape:
            raise ValueError(f"weight shape {weight.shape} must be {rows.shape}")
    if validate:
        _check_index(rows, num_rows, "row index")
        _check_index(cols, len(h.data), "column index")
    return _make(
        _edge_sum(h.data, rows, cols, num_rows, weight),
        [(h, lambda g: _edge_sum(g, cols, rows, len(h.data), weight))],
        "spmm",
    )


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.shape).astype(a.data.dtype)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(g2, a.shape).astype(a.data.dtype)

    return _make(out_data, [(a, vjp)], "sum")


def mean_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    denom = a.size if axis is None else a.shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape) / denom).astype(a.data.dtype)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, a.shape) / denom).astype(a.data.dtype)

    return _make(out_data, [(a, vjp)], "mean")
