"""Distributed-data-parallel substrate (the ``torch.distributed`` stand-in).

Provides process-group style collectives over two backends:

* ``inline`` — ranks execute sequentially inside one Python process; the
  Multi-Process Engine drives gradient averaging explicitly.  Fully
  deterministic; used for the correctness/convergence experiments.
* ``process`` — one OS process per rank: each rank writes its
  contribution into its own shared-memory float64 slot, a cross-process
  barrier separates writes from reads, and every rank sums the slots in
  rank order (:class:`ProcessWorld`) — the paper's actual deployment
  shape, bit-identical to ``inline``.

:class:`DistributedDataParallel` implements the paper's semantics rule
(Sec. IV-B2): with ``n`` ranks at per-rank batch ``b/n`` and synchronous
gradient averaging, training is algorithmically equivalent to one process
at batch ``b``.
"""

from repro.distributed.comm import (
    Communicator,
    SingleProcessComm,
    ProcessWorld,
    ProcessCommunicator,
)
from repro.distributed.ddp import (
    DistributedDataParallel,
    replicate_module,
    average_gradients,
)

__all__ = [
    "Communicator",
    "SingleProcessComm",
    "ProcessWorld",
    "ProcessCommunicator",
    "DistributedDataParallel",
    "replicate_module",
    "average_gradients",
]
