"""Pluggable execution backends for the Multi-Process Engine.

``inline``
    Ranks execute sequentially in the caller's thread — bit-for-bit
    deterministic reference semantics.
``thread``
    One OS thread per rank; numpy releases the GIL inside kernels.
``process``
    One OS process per rank — the paper's real mechanism: shared-memory
    graph/feature store, cross-process collectives, core binding via
    ``sched_setaffinity``.  Rank workers always run in a
    :class:`~repro.exec.pool.WorkerPool`, driven by
    :class:`~repro.exec.runtime.EpochPlan` messages with weights over a
    shared-memory param store; the engine's ``persistent`` flag keeps
    the pool alive across epochs (default) or shuts it down after each
    one (respawn).

Select with :func:`get_backend`; importing this package registers all
built-in backends.
"""

from repro.exec.base import (
    EpochResult,
    ExecutionBackend,
    available_backends,
    forward_loss,
    get_backend,
    rank_chunk,
    register_backend,
)
from repro.exec.inline import InlineBackend
from repro.exec.pool import WorkerPool
from repro.exec.process import ProcessBackend
from repro.exec.runtime import EpochPlan, WorkerInit
from repro.exec.thread import ThreadBackend

__all__ = [
    "EpochResult",
    "ExecutionBackend",
    "available_backends",
    "forward_loss",
    "get_backend",
    "rank_chunk",
    "register_backend",
    "EpochPlan",
    "WorkerInit",
    "WorkerPool",
    "InlineBackend",
    "ProcessBackend",
    "ThreadBackend",
]
