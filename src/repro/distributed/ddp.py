"""Distributed Data Parallel wrapper and helpers.

Implements the paper's semantics-preservation contract (Sec. IV-B2):

* ``replicate_module`` clones a model ``n`` times with *identical*
  weights (DDP's initial broadcast);
* each rank computes gradients on its own ``b/n``-sized mini-batch;
* :func:`average_gradients` / :meth:`DistributedDataParallel.sync_gradients`
  average gradients across ranks so every replica takes the *same*
  synchronous-SGD step — making ``n`` ranks at batch ``b/n``
  algorithmically equivalent to one process at batch ``b``.

Note the factor-of-``n`` subtlety: a mean-reduced loss over ``b/n``
samples produces a gradient whose expectation equals the full-batch
gradient, so *averaging* (not summing) across ranks reproduces the
single-process batch-``b`` mean-loss gradient exactly when the union of
the rank batches equals the original batch.  ``tests/distributed`` checks
this identity up to rounding (one batch-``b`` loss sums in a different
order than ``n`` chunk losses).  Across execution backends there is no
rounding gap: every backend sums the ranks' gradients in rank order, so
they agree bit for bit.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.autograd.module import Module
from repro.distributed.comm import Communicator, SingleProcessComm

__all__ = ["DistributedDataParallel", "replicate_module", "average_gradients"]


def replicate_module(module: Module, n: int) -> list[Module]:
    """Deep-copy ``module`` ``n`` times (weights start bit-identical)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    replicas = [module] + [copy.deepcopy(module) for _ in range(n - 1)]
    # deep copies share no arrays; assert the state dicts match
    ref = module.state_dict()
    for rep in replicas[1:]:
        for k, v in rep.state_dict().items():
            if not np.array_equal(v, ref[k]):  # pragma: no cover - sanity
                raise AssertionError("replica initialisation diverged")
    return replicas


def average_gradients(modules: Sequence[Module]) -> None:
    """In-place average of parameter gradients across replicas.

    Used by the Multi-Process Engine's ``inline`` backend, where ranks run
    sequentially and no communicator is needed.  Parameters with ``None``
    grads on every rank stay ``None``; a rank mixing ``None`` with real
    grads on others is treated as a zero contribution.
    """
    if not modules:
        raise ValueError("average_gradients needs at least one module")
    param_lists = [m.parameters() for m in modules]
    n_params = len(param_lists[0])
    if any(len(pl) != n_params for pl in param_lists):
        raise ValueError("replicas disagree on parameter count")
    n = len(modules)
    for i in range(n_params):
        grads = [pl[i].grad for pl in param_lists]
        if all(g is None for g in grads):
            continue
        shape = param_lists[0][i].data.shape
        total = np.zeros(shape, dtype=np.float64)
        for g in grads:
            if g is not None:
                total += g
        mean = (total / n).astype(param_lists[0][i].data.dtype)
        for pl in param_lists:
            pl[i].grad = mean.copy()


class DistributedDataParallel:
    """Rank-local DDP wrapper over a communicator.

    Mirrors ``torch.nn.parallel.DistributedDataParallel``: construction
    broadcasts rank 0's weights; ``sync_gradients()`` all-reduce-averages
    gradients after ``backward()``; forward just delegates.
    """

    def __init__(self, module: Module, comm: Communicator | None = None):
        self.module = module
        self.comm = comm if comm is not None else SingleProcessComm()
        # initial weight broadcast so all ranks start identical
        params = module.parameters()
        synced = self.comm.broadcast([p.data for p in params], root=0)
        for p, arr in zip(params, synced):
            p.data = np.asarray(arr, dtype=p.data.dtype)

    def __call__(self, *args, **kwargs):
        return self.module(*args, **kwargs)

    def parameters(self):
        return self.module.parameters()

    def zero_grad(self) -> None:
        self.module.zero_grad()

    def train(self, mode: bool = True):
        self.module.train(mode)
        return self

    def eval(self):
        self.module.eval()
        return self

    def sync_gradients(self) -> None:
        """All-reduce-mean every parameter gradient across ranks."""
        params = self.module.parameters()
        grads = [
            p.grad if p.grad is not None else np.zeros_like(p.data) for p in params
        ]
        averaged = self.comm.allreduce_mean(grads)
        for p, g in zip(params, averaged):
            p.grad = np.asarray(g, dtype=p.data.dtype)
