"""Minimal reverse-mode automatic differentiation over numpy arrays.

This subpackage replaces PyTorch for the purposes of this reproduction:
it provides exactly the tensor operations mini-batch GNN training needs
(dense linear algebra, ReLU, concat, gather, segment reductions via
:mod:`repro.gnn.aggregate`, log-softmax + NLL loss), a ``Module``/
``Linear`` layer system, parameter initialisers and SGD/Adam optimizers.

The design is deliberately simple — a dynamic tape of backward closures,
topologically sorted at ``backward()`` time — but numerically serious:
every op's gradient is verified against central finite differences in
``tests/autograd/test_gradcheck.py``.
"""

from repro.autograd.tensor import (
    Tensor,
    no_grad,
    inference_mode,
    is_grad_enabled,
    is_inference_mode,
)
from repro.autograd.ops import (
    add,
    sub,
    mul,
    matmul,
    relu,
    concat,
    gather_rows,
    sum_,
    mean_,
    reshape,
    transpose,
    dropout,
)
from repro.autograd.functional import log_softmax, nll_loss, cross_entropy, accuracy
from repro.autograd.module import Module, Parameter, Linear, Sequential
from repro.autograd.optim import Optimizer, SGD, Adam
from repro.autograd import init
from repro.autograd.serialize import save_payload, load_payload

__all__ = [
    "Tensor",
    "no_grad",
    "inference_mode",
    "is_grad_enabled",
    "is_inference_mode",
    "add",
    "sub",
    "mul",
    "matmul",
    "relu",
    "concat",
    "gather_rows",
    "sum_",
    "mean_",
    "reshape",
    "transpose",
    "dropout",
    "log_softmax",
    "nll_loss",
    "cross_entropy",
    "accuracy",
    "Module",
    "Parameter",
    "Linear",
    "Sequential",
    "Optimizer",
    "SGD",
    "Adam",
    "init",
    "save_payload",
    "load_payload",
]
