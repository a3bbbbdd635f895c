"""Core binding: assign core ids to each GNN training process.

ARGO's Core-Binder (paper Sec. IV-B3) binds each process's sampling cores
and training cores via DGL's affinity API or ``taskset``.  The binding is
an explicit data structure consumed by the cost model, and — through
:func:`apply_binding` — an *actual* ``os.sched_setaffinity`` call issued
by the ``process`` execution backend's workers.  The packing policy is
socket-compact: processes are laid out left-to-right over the
socket-major core numbering, so few-process configurations stay
NUMA-local and many-core configurations progressively span sockets —
reproducing the remote-access (UPI) behaviour the paper profiles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from repro.platform.spec import PlatformSpec
from repro.platform.topology import CoreSet
from repro.utils.validation import check_positive_int

__all__ = [
    "ProcessBinding",
    "CoreBinder",
    "apply_binding",
    "sampling_affinity",
    "training_affinity",
]


@dataclass(frozen=True)
class ProcessBinding:
    """Core assignment for a single GNN training process."""

    rank: int
    sampling_cores: CoreSet
    training_cores: CoreSet

    @cached_property
    def all_cores(self) -> CoreSet:
        """Sampling then training cores, built once per binding."""
        return CoreSet(
            self.sampling_cores.cores + self.training_cores.cores,
            self.sampling_cores.platform,
        )


def sampling_affinity(
    binding: "ProcessBinding | Iterable[int] | None",
) -> tuple[int, ...] | None:
    """The sampler-worker core set of a binding.

    ``ProcessBinding`` → its sampling cores; a bare core iterable is
    passed through unchanged (no sampler/trainer split to honour);
    ``None`` → ``None``.  Consumed by the prefetch pipeline to pin
    sampler workers with :func:`apply_binding` — on Linux,
    ``sched_setaffinity`` acts on the *calling thread*, so sampler
    threads can pin themselves to the sampler cores while the trainer
    thread keeps (or re-binds to) the training cores.
    """
    if binding is None:
        return None
    if isinstance(binding, ProcessBinding):
        return binding.sampling_cores.cores
    return tuple(binding)


def training_affinity(
    binding: "ProcessBinding | Iterable[int] | None",
) -> tuple[int, ...] | None:
    """The trainer core set of a binding (counterpart of :func:`sampling_affinity`)."""
    if binding is None:
        return None
    if isinstance(binding, ProcessBinding):
        return binding.training_cores.cores
    return tuple(binding)


def apply_binding(binding: "ProcessBinding | Iterable[int] | None") -> tuple[int, ...] | None:
    """Pin the calling process to a binding's cores (best effort).

    The paper's bindings target 112/64-core testbeds; on a smaller host
    the requested ids are intersected with the cores actually available
    to this process.  Returns the core set applied, or ``None`` when the
    binding was empty after intersection or the platform offers no
    ``sched_setaffinity`` (macOS/Windows) — in both cases training simply
    proceeds unpinned, as core binding changes speed, never semantics.
    """
    if binding is None or not hasattr(os, "sched_setaffinity"):
        return None
    cores = binding.all_cores.cores if isinstance(binding, ProcessBinding) else tuple(binding)
    allowed = os.sched_getaffinity(0)
    applicable = tuple(sorted(set(cores) & allowed))
    if not applicable:
        return None
    os.sched_setaffinity(0, applicable)
    return applicable


class CoreBinder:
    """Deterministic packing of process core allocations onto a platform.

    Two policies:

    ``compact`` (default, what ARGO does)
        Processes fill cores left to right over the socket-major
        numbering, so small configurations stay NUMA-local.
    ``spread``
        Processes are distributed round-robin over sockets *and* each
        process's cores are striped across sockets — the pathological
        placement an unbound scheduler can produce.  Used by the NUMA
        ablation (paper Sec. IX motivates UPI-aware placement as future
        work) to quantify what core binding is worth.
    """

    POLICIES = ("compact", "spread")

    def __init__(self, platform: PlatformSpec, *, policy: str = "compact"):
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}, got {policy!r}")
        self.platform = platform
        self.policy = policy

    def _core_order(self) -> list[int]:
        """Core visitation order for the active policy."""
        total = self.platform.total_cores
        if self.policy == "compact":
            return list(range(total))
        # spread: stripe across sockets (socket 0 core 0, socket 1 core 0, ...)
        cps = self.platform.cores_per_socket
        return [
            sock * cps + local
            for local in range(cps)
            for sock in range(self.platform.sockets)
        ]

    def bind(
        self, num_processes: int, sampling_cores: int, training_cores: int
    ) -> list[ProcessBinding]:
        """Bind ``num_processes`` processes, each with the given core split.

        Raises ``ValueError`` if the configuration oversubscribes the
        machine (``n * (s + t) > total_cores``).
        """
        n = check_positive_int(num_processes, "num_processes")
        s = check_positive_int(sampling_cores, "sampling_cores")
        t = check_positive_int(training_cores, "training_cores")
        per_proc = s + t
        if n * per_proc > self.platform.total_cores:
            raise ValueError(
                f"configuration ({n} procs x {per_proc} cores) oversubscribes "
                f"{self.platform.name} ({self.platform.total_cores} cores)"
            )
        order = self._core_order()
        bindings = []
        cursor = 0
        for rank in range(n):
            chunk = order[cursor : cursor + per_proc]
            cursor += per_proc
            bindings.append(
                ProcessBinding(
                    rank=rank,
                    sampling_cores=CoreSet(tuple(chunk[:s]), self.platform),
                    training_cores=CoreSet(tuple(chunk[s:]), self.platform),
                )
            )
        return bindings
