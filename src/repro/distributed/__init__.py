"""Distributed-data-parallel substrate (the ``torch.distributed`` stand-in).

The Multi-Process Engine keeps one model and one optimizer.  Its
gradients are averaged in one of two ways:

* ``inline`` — ranks execute sequentially inside one Python process on
  the one model; :func:`average_gradients` averages the per-rank
  gradient lists.  Fully deterministic; used for the
  correctness/convergence experiments.
* ``process`` — one OS process per rank: each rank writes its
  contribution into its own shared-memory float64 slot, a cross-process
  barrier separates writes from reads, and every rank sums the slots in
  rank order (:class:`ProcessWorld`) — the paper's actual deployment
  shape, bit-identical to ``inline``.

Either way the paper's semantics rule holds (Sec. IV-B2): with ``n``
ranks at per-rank batch ``b/n`` and synchronous gradient averaging,
training is algorithmically equivalent to one process at batch ``b``.
No weight broadcast is needed: every rank starts each epoch from the
same parent-published state.
"""

from repro.distributed.comm import ProcessWorld, ProcessCommunicator
from repro.distributed.ddp import average_gradients

__all__ = [
    "ProcessWorld",
    "ProcessCommunicator",
    "average_gradients",
]
