"""Deadline-aware micro-batching of per-node inference requests.

Online requests arrive one node at a time; executing them singly wastes
the engine's per-dispatch overhead (IPC round to the worker pool, cache
bookkeeping), while waiting indefinitely to fill large batches ruins
tail latency.  The :class:`MicroBatcher` implements the standard
compromise: coalesce requests until either ``max_batch`` are pending
(**full flush**) or the *oldest* pending request has waited
``max_wait_ms`` (**deadline flush**) — the two batching knobs of
``serve-bench`` and the Fig. 9 sweep.

The batcher is deliberately clock-agnostic: every method takes ``now``
explicitly, so the same code runs under the workload driver's virtual
clock (deterministic benches), a real-time loop, and the deadline-
semantics tests, which drive bursty arrival patterns directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = ["Request", "BatchStats", "MicroBatcher"]


@dataclass(frozen=True)
class Request:
    """One inference request: which node, and when it arrived."""

    id: int
    node: int
    arrival: float


@dataclass
class BatchStats:
    """Flush accounting over a :class:`MicroBatcher`'s lifetime."""

    requests: int = 0
    batches: int = 0
    #: flushes triggered by a full batch (``max_batch`` pending)
    full_flushes: int = 0
    #: flushes triggered by the oldest request's deadline
    deadline_flushes: int = 0
    #: forced end-of-stream flushes (see :meth:`MicroBatcher.pop`)
    drain_flushes: int = 0
    #: requests dropped by admission control (:meth:`MicroBatcher.shed_oldest`)
    shed: int = 0

    @property
    def mean_batch(self) -> float:
        return self.requests / self.batches if self.batches else 0.0


class MicroBatcher:
    """FIFO request coalescer under ``max_batch`` / ``max_wait_ms``.

    Protocol: :meth:`submit` requests as they arrive, poll :meth:`ready`
    (or schedule on :meth:`next_deadline`), then :meth:`pop` a batch of
    at most ``max_batch`` requests in arrival order.  ``max_wait_ms=0``
    degenerates to flush-on-first-poll (every request is its own
    deadline), ``max_batch=1`` to no coalescing at all.

    Pass ``metrics`` (a :class:`~repro.obs.metrics.MetricRegistry`) to
    mirror the :class:`BatchStats` counters into ``serve.batcher.*``
    instruments plus a ``serve.batcher.batch_size`` histogram — the
    instruments are created up front so the per-flush path only
    increments.
    """

    def __init__(self, max_batch: int, max_wait_ms: float, *, metrics=None):
        if int(max_batch) < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if float(max_wait_ms) < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1e3  # seconds, like the clocks
        self.stats = BatchStats()
        self._pending: deque[Request] = deque()
        if metrics is not None:
            self._m_flush = {
                cause: metrics.counter(f"serve.batcher.{cause}_flushes")
                for cause in ("full", "deadline", "drain")
            }
            self._m_shed = metrics.counter("serve.batcher.shed")
            # batch sizes live in [1, max_batch]: positive-exponent buckets
            self._m_size = metrics.histogram(
                "serve.batcher.batch_size", lo_exp=0, hi_exp=12
            )
        else:
            self._m_flush = None
            self._m_shed = None
            self._m_size = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pending)

    def submit(self, request: Request) -> None:
        self._pending.append(request)

    def shed_oldest(self) -> Request:
        """Drop and return the oldest pending request (admission control).

        The shed-oldest policy: when a bounded queue overflows, the
        request that has already waited longest — and is therefore the
        most likely to miss its SLO anyway — is sacrificed for the
        freshest arrival.  The caller owns the refusal (error response,
        ``ServingReport.shed_count``); the batcher only counts it.
        """
        if not self._pending:
            raise ValueError("shed_oldest() on an empty batcher")
        self.stats.shed += 1
        if self._m_shed is not None:
            self._m_shed.inc()
        return self._pending.popleft()

    def next_deadline(self) -> float | None:
        """When the oldest pending request must flush (None when empty)."""
        if not self._pending:
            return None
        return self._pending[0].arrival + self.max_wait

    def ready(self, now: float) -> bool:
        """Whether a batch should flush at time ``now``."""
        if len(self._pending) >= self.max_batch:
            return True
        return bool(self._pending) and now >= self.next_deadline()

    def pop(self, now: float, *, drain: bool = False) -> list[Request]:
        """Remove and return the next batch (arrival order, ≤ ``max_batch``).

        Requires :meth:`ready` unless ``drain`` forces an end-of-stream
        flush of whatever is pending.  The flush cause is recorded in
        :attr:`stats` — full beats deadline beats drain, matching the
        trigger precedence in :meth:`ready`.
        """
        if not self._pending:
            raise ValueError("pop() on an empty batcher")
        full = len(self._pending) >= self.max_batch
        if not full and not drain and now < self.next_deadline():
            raise ValueError(
                f"batch not ready at t={now:.6f} (deadline "
                f"{self.next_deadline():.6f}, {len(self._pending)} pending)"
            )
        batch = [self._pending.popleft() for _ in range(min(self.max_batch, len(self._pending)))]
        self.stats.requests += len(batch)
        self.stats.batches += 1
        if full:
            cause = "full"
            self.stats.full_flushes += 1
        elif now >= batch[0].arrival + self.max_wait:
            cause = "deadline"
            self.stats.deadline_flushes += 1
        else:
            cause = "drain"
            self.stats.drain_flushes += 1
        if self._m_flush is not None:
            self._m_flush[cause].inc()
            self._m_size.observe(float(len(batch)))
        return batch
