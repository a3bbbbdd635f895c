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
    "linear",
    "relu",
    "exp",
    "log",
    "concat",
    "gather_rows",
    "EdgeOperator",
    "sparse_product",
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
def _split_matmul(a: np.ndarray, b: np.ndarray, row_splits) -> np.ndarray:
    """``a @ b`` as one BLAS call, or one call per ``row_splits`` segment."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D tensors, got {a.shape} @ {b.shape}")
    if row_splits is None or len(row_splits) <= 2:
        return a @ b
    row_splits = np.asarray(row_splits, dtype=np.int64)
    if row_splits[0] != 0 or row_splits[-1] != len(a) or np.any(np.diff(row_splits) < 0):
        raise ValueError(
            f"row_splits must be a monotone 0..{len(a)} offset array, "
            f"got [{row_splits[0]}, ..., {row_splits[-1]}]"
        )
    return np.concatenate(
        [a[s:e] @ b for s, e in zip(row_splits[:-1], row_splits[1:])], axis=0
    )


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
    return _make(
        _split_matmul(a.data, b.data, row_splits),
        [
            (a, lambda g: g @ b.data.T),
            (b, lambda g: a.data.T @ g),
        ],
        "matmul",
    )


def linear(
    x, weight, bias=None, *, row_splits=None, relu: bool = False, dropout: float = 0.0, rng=None
) -> Tensor:
    """``dropout(relu(x @ weight + bias))`` as one tape node.

    The dense tail of a GNN layer, bit-identical to the unfused chain
    :func:`matmul` → :func:`add` → :func:`relu` → :func:`dropout`: the
    same GEMM call geometry (``row_splits`` as in :func:`matmul`), then
    the bias, the ReLU (``fmax`` + ``abs``) and the dropout mask
    (drawn exactly as :func:`dropout` draws it) applied in place on the
    GEMM's output instead of on three fresh arrays.  ``relu=False``
    skips the ReLU and ``dropout=0.0`` the dropout (the caller passes 0
    outside training); ``bias=None`` skips the bias.

    Backward multiplies the upstream gradient by the dropout mask, then
    by the ReLU mask, in a buffer of its own — the incoming gradient may
    be shared with another parent and is never written — and derives
    ``d bias``, ``d weight`` and ``d x`` from that one masked gradient.
    """
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {dropout}")
    x, weight = _wrap(x), _wrap(weight)
    out = _split_matmul(x.data, weight.data, row_splits)
    if bias is not None:
        bias = _wrap(bias)
        out += bias.data
    relu_mask = drop_mask = None
    if relu:
        relu_mask = out > 0
        np.fmax(out, out.dtype.type(0), out=out)
        np.abs(out, out=out)
    if dropout > 0.0:
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        drop_mask = (rng.random(out.shape) >= dropout).astype(out.dtype) / (1.0 - dropout)
        out *= drop_mask

    # every parent's VJP starts from the same masked gradient: compute it
    # once per upstream gradient (the tape calls the VJPs back to back,
    # in parent order) and let the last parent's VJP drop it, so the
    # graph does not hold two gradient-sized arrays until it is freed
    last = [None, None]

    def masked(g, release: bool = False):
        if last[0] is not g:
            gm = g
            if drop_mask is not None:
                gm = g * drop_mask
            if relu_mask is not None:
                gm = gm * relu_mask if gm is g else np.multiply(gm, relu_mask, out=gm)
            last[:] = g, gm
        gm = last[1]
        if release:
            last[:] = None, None
        return gm

    parents = [
        (x, lambda g: masked(g) @ weight.data.T),
        (weight, lambda g: x.data.T @ masked(g, release=bias is None)),
    ]
    if bias is not None:
        parents.append((bias, lambda g: unbroadcast(masked(g, release=True), bias.shape)))
    return _make(out, parents, "linear")


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
    # EdgeOperator's scipy kernels take indices on trust (no bounds
    # checks, no negative wrap-around): each public op range-checks once,
    # in its forward, and its backward reuses the same arrays
    if len(index) and (index.min() < 0 or index.max() >= bound):
        raise IndexError(f"{what} out of range [0, {bound})")


def _edge_order_csr(data, rows, cols, shape) -> csr_matrix:
    """CSR of ``A[rows[e], cols[e]] = data[e]``, each row in edge order.

    Built as a CSC matrix with one column per edge: its ``tocsr()`` is
    a stable counting sort that keeps duplicate edges apart and each
    row's entries in column (= edge) order; the column labels are then
    relabelled through ``cols``.  Going through ``coo_matrix``,
    ``sum_duplicates`` or ``sort_indices`` would merge or reorder
    entries and change the rounding.
    """
    num_edges = len(rows)
    mat = csc_matrix((data, rows, np.arange(num_edges + 1)), shape=(shape[0], num_edges)).tocsr()
    return csr_matrix((mat.data, cols[mat.indices], mat.indptr), shape=shape)


def _product(mat: csr_matrix, x: np.ndarray) -> np.ndarray:
    flat = x.reshape(len(x), int(np.prod(x.shape[1:])))
    return (mat @ flat).reshape((mat.shape[0],) + x.shape[1:])


class EdgeOperator:
    """The sparse matrix of one edge list, built once and applied many times.

    ``A @ x`` is ``out[rows[e]] += weight[e] * x[cols[e]]`` and the
    transposed product ``A.T @ g`` is ``out[cols[e]] += weight[e] *
    g[rows[e]]`` — the one scatter-reduction kernel of the package, with
    one stored entry of ``A`` per edge and no ``(E, F)`` message array.

    Both products accumulate every output row sequentially in ascending
    edge id — the summation order of numpy's unbuffered ``ufunc.at``
    scatter-add — so they are bit-identical to that loop, which the
    training trajectories and every serving parity guarantee were pinned
    on.  ``csr_matvecs`` runs ``y += a * x`` down each CSR row, so what
    matters is the order of each row's entries:

    * when ``rows`` is non-decreasing — every block the samplers emit is
      destination-major — the edge list *is* the CSR (``indptr`` from
      the row counts, ``indices = cols``, ``data = weight``), and the
      transpose is ``A.T.tocsr()``, scipy's stable counting sort, which
      walks the edges in id order and so lists each column's edges in
      ascending id;
    * any other order goes through :func:`_edge_order_csr` both ways.

    The transpose is built on the first :meth:`rmatmul` (a forward-only
    pass never pays for it).  ``rows`` must lie in ``[0, num_rows)`` and
    ``cols`` in ``[0, num_cols)``; nothing here checks (see
    :func:`_check_index`).  ``weight`` (default all ones) is cast to
    ``dtype``, the dtype the products run in.
    """

    __slots__ = ("shape", "_forward", "_transpose", "_unsorted")

    def __init__(self, rows, cols, shape, weight=None, *, dtype=np.float32):
        self.shape = (int(shape[0]), int(shape[1]))
        data = np.ones(len(rows), dtype=dtype) if weight is None else np.asarray(weight, dtype=dtype)
        self._transpose = None
        if np.all(rows[1:] >= rows[:-1]):
            indptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=self.shape[0]), out=indptr[1:])
            self._forward = csr_matrix((data, cols, indptr), shape=self.shape)
            self._unsorted = None
        else:
            self._forward = _edge_order_csr(data, rows, cols, self.shape)
            self._unsorted = (data, rows, cols)

    @property
    def transpose(self) -> csr_matrix:
        """The CSR of ``A.T``, each row in ascending edge id (built once)."""
        if self._transpose is None:
            if self._unsorted is None:
                self._transpose = self._forward.T.tocsr()
            else:
                data, rows, cols = self._unsorted
                self._transpose = _edge_order_csr(data, cols, rows, self.shape[::-1])
                self._unsorted = None
        return self._transpose

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` (``x`` holds one row per column of ``A``)."""
        return _product(self._forward, x)

    def rmatmul(self, g: np.ndarray) -> np.ndarray:
        """``A.T @ g`` (``g`` holds one row per row of ``A``)."""
        return _product(self.transpose, g)


def sparse_product(op: EdgeOperator, h) -> Tensor:
    """``op @ h`` on the tape; the gradient wrt ``h`` is ``op.T @ g``.

    The message-passing product of a prebuilt :class:`EdgeOperator`
    (a block's operator is built once and reused by every layer that
    aggregates over it and by their backward passes).
    """
    h = _wrap(h)
    return _make(op.matmul(h.data), [(h, op.rmatmul)], "spmm")


def gather_rows(a, index: np.ndarray) -> Tensor:
    """Select rows ``a[index]`` (feature lookup for sampled nodes).

    Backward scatter-adds into the source rows — the memory-intensive
    ``aten::index_select`` the paper's Figure 2 highlights.  Indices
    must be non-negative (no numpy wrap-around), forward and backward.
    """
    a = _wrap(a)
    index = np.asarray(index, dtype=np.int64)
    _check_index(index, len(a.data), "row index")

    def vjp(g):
        edges = np.arange(len(index))
        return EdgeOperator(index, edges, (len(a.data), len(index)), dtype=g.dtype).matmul(g)

    return _make(a.data[index], [(a, vjp)], "gather_rows")


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
    output row in edge order (:class:`EdgeOperator`, built per call —
    :func:`sparse_product` reuses a prebuilt one).  ``validate=False``
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
    op = EdgeOperator(rows, cols, (num_rows, len(h.data)), weight, dtype=h.data.dtype)
    return sparse_product(op, h)


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
