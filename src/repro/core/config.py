"""Runtime configuration record."""

from __future__ import annotations

from dataclasses import dataclass

from repro.tuning.defaults import DEFAULT_QUEUE_DEPTH
from repro.utils.validation import check_positive_int

__all__ = ["RuntimeConfig"]


@dataclass(frozen=True)
class RuntimeConfig:
    """One point of ARGO's design space (paper Sec. V).

    Attributes
    ----------
    num_processes:
        GNN training processes instantiated by the Multi-Process Engine.
    sampling_cores:
        CPU cores bound to mini-batch sampling, per process.
    training_cores:
        CPU cores bound to model propagation, per process.
    backend:
        Execution backend the engine should run the ranks on
        (``inline`` or ``process``); searchable by the autotuner
        via :class:`repro.tuning.space.BackendSpace`.
    prefetch:
        Run the sampling/compute overlap pipeline (:mod:`repro.pipeline`):
        each rank gets ``sampling_cores`` sampler workers feeding a
        bounded batch queue.  Off, ``sampling_cores`` only informs the
        cost model and core binding; on, it also sets the worker count —
        the ``s`` axis changes measured wall clock.
    queue_depth:
        Prefetch lookahead bound (batches sampled ahead of compute per
        rank); ignored when ``prefetch`` is off.  Searchable by the
        autotuner via ``BackendSpace(..., queue_depths=...)``.
    persistent:
        Lifetime of the process backend's worker pool: ``True``
        (default) keeps the rank workers alive across epochs (launch tax
        paid once); ``False`` shuts the pool down after every epoch, so
        each epoch forks fresh workers (the paper's re-launch
        behaviour).  Ignored by the in-process backends.
    """

    num_processes: int
    sampling_cores: int
    training_cores: int
    backend: str = "inline"
    prefetch: bool = False
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    persistent: bool = True

    def __post_init__(self):
        check_positive_int(self.num_processes, "num_processes")
        check_positive_int(self.sampling_cores, "sampling_cores")
        check_positive_int(self.training_cores, "training_cores")
        check_positive_int(self.queue_depth, "queue_depth")
        object.__setattr__(self, "prefetch", bool(self.prefetch))
        object.__setattr__(self, "persistent", bool(self.persistent))
        # normalize like get_backend so the same string is accepted by
        # both the engine and the config path
        object.__setattr__(self, "backend", str(self.backend).lower())
        from repro.exec import available_backends  # lazy: avoid import cycle

        if self.backend not in available_backends():
            raise ValueError(
                f"backend must be one of {sorted(available_backends())}, "
                f"got {self.backend!r}"
            )

    @property
    def cores_per_process(self) -> int:
        return self.sampling_cores + self.training_cores

    @property
    def total_cores(self) -> int:
        return self.num_processes * self.cores_per_process

    def as_tuple(self) -> tuple[int, int, int]:
        """The numeric ``(n, s, t)`` triple (backend carried separately)."""
        return (self.num_processes, self.sampling_cores, self.training_cores)

    @classmethod
    def from_tuple(cls, cfg) -> "RuntimeConfig":
        """Build from ``(n, s, t)``, ``(n, s, t, backend)`` or
        ``(n, s, t, backend, queue_depth)``.

        The 5-tuple form is what ``BackendSpace(..., queue_depths=...)``
        emits: a searched queue depth implies the overlap pipeline, so
        ``prefetch`` switches on.
        """
        if len(cfg) == 5:
            n, s, t, backend, q = cfg
            return cls(
                num_processes=int(n),
                sampling_cores=int(s),
                training_cores=int(t),
                backend=str(backend),
                prefetch=True,
                queue_depth=int(q),
            )
        if len(cfg) == 4:
            n, s, t, backend = cfg
            return cls(
                num_processes=int(n),
                sampling_cores=int(s),
                training_cores=int(t),
                backend=str(backend),
            )
        n, s, t = cfg
        return cls(num_processes=int(n), sampling_cores=int(s), training_cores=int(t))

    def __str__(self) -> str:
        base = (
            f"(n={self.num_processes}, samp={self.sampling_cores}, "
            f"train={self.training_cores}"
        )
        if self.backend != "inline":
            base = f"{base}, backend={self.backend}"
        if self.prefetch:
            base = f"{base}, prefetch=q{self.queue_depth}"
        if not self.persistent:
            base = f"{base}, respawn"
        return f"{base})"
