"""Observability: unified metrics registry + shared-memory span tracing.

``repro.obs`` is the one sink for the serving stack's accounting —
:mod:`~repro.obs.metrics` (Counter/Gauge/log2 Histogram behind a
mergeable :class:`MetricRegistry`), :mod:`~repro.obs.trace` (the span
recorder, the serving path's one timer, plus fixed-slot span rings in
shared memory so persistent pool workers trace without IPC), and
:mod:`~repro.obs.export` (Perfetto-loadable Chrome trace JSON plus the
versioned metrics document).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.trace import (
    CANONICAL_SPANS,
    NULL_RECORDER,
    NameTable,
    NullRecorder,
    SpanRecord,
    SpanRecorder,
    TraceArena,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "CANONICAL_SPANS",
    "NULL_RECORDER",
    "NameTable",
    "NullRecorder",
    "SpanRecord",
    "SpanRecorder",
    "TraceArena",
]
