"""Execution backends for the Multi-Process Engine.

``inline``
    Ranks execute sequentially in the caller's thread — bit-for-bit
    deterministic reference semantics.
``process``
    One OS process per rank — the paper's real mechanism: shared-memory
    graph/feature store, cross-process collectives, core binding via
    ``sched_setaffinity``.  Rank workers always run in a
    :class:`~repro.exec.pool.WorkerPool`, driven by
    :class:`~repro.exec.base.EpochPlan` messages with weights over a
    shared-memory param store; the engine's ``persistent`` flag keeps
    the pool alive across epochs (default) or shuts it down after each
    one (respawn).

Select one by name with :func:`get_backend`.
"""

from repro.exec.base import (
    EpochPlan,
    EpochResult,
    ExecutionBackend,
    rank_chunk,
)
from repro.exec.inline import InlineBackend
from repro.exec.pool import WorkerPool
from repro.exec.process import ProcessBackend
from repro.exec.runtime import WorkerInit

_BACKENDS: dict[str, type[ExecutionBackend]] = {
    InlineBackend.name: InlineBackend,
    ProcessBackend.name: ProcessBackend,
}

__all__ = [
    "EpochResult",
    "ExecutionBackend",
    "available_backends",
    "get_backend",
    "rank_chunk",
    "EpochPlan",
    "WorkerInit",
    "WorkerPool",
    "InlineBackend",
    "ProcessBackend",
]


def available_backends() -> tuple[str, ...]:
    """Backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate a backend by name.

    ``options`` are forwarded to the backend constructor (e.g.
    ``get_backend("process", start_method="spawn")``).
    """
    key = str(name).lower()
    if key not in _BACKENDS:
        raise ValueError(f"backend must be one of {sorted(_BACKENDS)}, got {name!r}")
    return _BACKENDS[key](**options)
