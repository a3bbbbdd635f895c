"""``Module``/``Parameter`` layer system (the ``torch.nn`` stand-in).

Modules register parameters and sub-modules automatically via
``__setattr__``, support ``state_dict``/``load_state_dict`` for the
execution backends' state exchange, and a ``train()``/``eval()`` mode flag that
gates dropout.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.autograd.ops import linear as ops_linear
from repro.autograd.tensor import Tensor
from repro.autograd import init as init_mod

__all__ = ["Parameter", "Module", "Linear", "Sequential"]


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)
        # Parameters must track gradients even when constructed inside a
        # no_grad() block (e.g. model built during evaluation setup).
        self.requires_grad = True


class Module:
    """Base class for layers and models."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> OrderedDict:
        return OrderedDict((name, p.data.copy()) for name, p in self.named_parameters())

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, arr in state.items():
            p = own[name]
            arr = np.asarray(arr, dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with Glorot-initialised weights."""

    def __init__(self, in_features: int, out_features: int, *, bias: bool = True, rng=None):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError(f"invalid Linear dims ({in_features}, {out_features})")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init_mod.glorot_uniform((in_features, out_features), rng=rng))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None

    def forward(
        self, x: Tensor, *, row_splits=None, relu: bool = False, dropout: float = 0.0, rng=None
    ) -> Tensor:
        """``x @ W + b``, optionally followed by ReLU and dropout, as one
        tape node (:func:`repro.autograd.ops.linear`).

        ``row_splits`` computes the product in independent row segments
        (see :func:`repro.autograd.ops.matmul`); the bias broadcast is
        per-row either way.  ``dropout`` is the probability applied, so a
        caller outside training passes 0; ``rng`` draws its mask.
        """
        return ops_linear(
            x, self.weight, self.bias, row_splits=row_splits, relu=relu, dropout=dropout, rng=rng
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *mods: Module):
        super().__init__()
        for i, m in enumerate(mods):
            setattr(self, f"layer{i}", m)
        self._order = list(mods)

    def forward(self, x):
        for m in self._order:
            x = m(x)
        return x

    def __setattr__(self, name, value):
        # allow the bookkeeping list
        if name == "_order":
            object.__setattr__(self, name, value)
        else:
            super().__setattr__(name, value)
