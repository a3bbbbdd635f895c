"""Synchronous-SGD gradient averaging.

Implements the paper's semantics-preservation contract (Sec. IV-B2):
each rank computes gradients on its own ``b/n``-sized mini-batch, and
:func:`average_gradients` averages them so one synchronous-SGD step
follows — making ``n`` ranks at batch ``b/n`` algorithmically
equivalent to one process at batch ``b``.  Every rank would step
identical weights after an identical mean, so the engine keeps one
model and one optimizer and runs each rank's forward and backward on it.

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

from typing import Sequence

import numpy as np

from repro.autograd.module import Parameter

__all__ = ["average_gradients"]


def average_gradients(
    params: Sequence[Parameter], rank_grads: Sequence[Sequence[np.ndarray | None]]
) -> None:
    """Set each parameter's ``grad`` to the mean of the ranks' gradients.

    ``rank_grads[r][i]`` is rank ``r``'s gradient for ``params[i]``.  The
    ranks are summed in rank order into float64 zeros, divided by the
    rank count and cast once to the parameter's dtype — the arithmetic
    :class:`~repro.distributed.comm.ProcessWorld`'s all-reduce uses.  A
    ``None`` gradient adds nothing; a parameter whose gradient is
    ``None`` on every rank keeps ``grad = None``.
    """
    if not rank_grads:
        raise ValueError("average_gradients needs at least one rank")
    if any(len(grads) != len(params) for grads in rank_grads):
        raise ValueError("a rank's gradient list does not match the parameters")
    n = len(rank_grads)
    for i, p in enumerate(params):
        grads = [grads[i] for grads in rank_grads]
        if all(g is None for g in grads):
            p.grad = None
            continue
        total = np.zeros(p.data.shape, dtype=np.float64)
        for g in grads:
            if g is not None:
                total += g
        p.grad = (total / n).astype(p.data.dtype)
