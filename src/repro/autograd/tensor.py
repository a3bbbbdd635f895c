"""The ``Tensor`` class: a numpy array plus a backward tape.

Gradient propagation follows the standard dynamic-autodiff recipe:

* every differentiable op creates a result tensor holding a list of
  ``(parent, vjp)`` pairs, where ``vjp`` maps the result's gradient to the
  parent's gradient contribution;
* ``Tensor.backward()`` topologically sorts the tape and accumulates.

Broadcasting is handled once, centrally, in :func:`unbroadcast`.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "unbroadcast",
]

_GRAD_ENABLED = True
_INFERENCE_MODE = False


@contextlib.contextmanager
def no_grad():
    """Context manager disabling tape construction (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextlib.contextmanager
def inference_mode():
    """Forward-only fast path: ``no_grad`` plus skipped tape bookkeeping.

    Inside the block every op takes the cheap construction path — no
    ``(parent, vjp)`` scan, no parent-list handling — so a serving
    forward pays only the numpy kernels.  Numerics are untouched: the
    produced values are bit-identical to the grad-enabled forward (the
    tape never influences values), which the serve tests assert.
    """
    global _GRAD_ENABLED, _INFERENCE_MODE
    prev = (_GRAD_ENABLED, _INFERENCE_MODE)
    _GRAD_ENABLED, _INFERENCE_MODE = False, True
    try:
        yield
    finally:
        _GRAD_ENABLED, _INFERENCE_MODE = prev


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED


def is_inference_mode() -> bool:
    return _INFERENCE_MODE


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # sum leading dims added by broadcasting
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # sum dims where the original size was 1
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A differentiable wrapper around a ``float32``/``float64`` numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_op")

    def __init__(self, data, requires_grad: bool = False, *, _parents=None, _op: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32 if np.asarray(data).dtype.kind != "f" else None)
        if self.data.dtype == np.float64:
            pass  # allow float64 for numerical tests
        elif self.data.dtype != np.float32:
            self.data = self.data.astype(np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents: list[tuple["Tensor", Callable[[np.ndarray], np.ndarray]]] = (
            list(_parents) if (_parents and _GRAD_ENABLED) else []
        )
        self._op = _op

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False, dtype=np.float32) -> "Tensor":
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """The underlying array (a view — do not mutate in training code)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, op={self._op or 'leaf'})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # operator sugar (implementations in ops.py to keep this file small)
    # ------------------------------------------------------------------
    def __add__(self, other):
        from repro.autograd import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from repro.autograd import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.autograd import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from repro.autograd import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.autograd import ops

        return ops.div(self, other)

    def __neg__(self):
        from repro.autograd import ops

        return ops.mul(self, -1.0)

    def __matmul__(self, other):
        from repro.autograd import ops

        return ops.matmul(self, other)

    def __pow__(self, p):
        from repro.autograd import ops

        return ops.pow_(self, p)

    def sum(self, axis=None, keepdims=False):
        from repro.autograd import ops

        return ops.sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        from repro.autograd import ops

        return ops.mean_(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.autograd import ops

        return ops.reshape(self, shape if len(shape) > 1 else shape[0])

    @property
    def T(self):
        from repro.autograd import ops

        return ops.transpose(self)

    def relu(self):
        from repro.autograd import ops

        return ops.relu(self)

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Back-propagate from this tensor through the recorded tape.

        ``grad`` defaults to 1 for scalar tensors (the loss).  Gradients
        accumulate into ``.grad`` of every reachable tensor with
        ``requires_grad=True``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar tensor"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        # topological order over the tape
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent, _ in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g if node.grad is None else node.grad + g
            for parent, vjp in node._parents:
                pg = vjp(g)
                if pg is None:
                    continue
                pid = id(parent)
                if pid in grads:
                    grads[pid] = grads[pid] + pg
                else:
                    grads[pid] = pg

    def zero_grad(self) -> None:
        self.grad = None
