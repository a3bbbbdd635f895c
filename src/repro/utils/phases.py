"""Per-phase service-time accounting for the serving hot path.

One :class:`PhaseStats` instance rides through a serving forward and
accumulates where the wall time went: drawing frontiers (``sample_s``),
assembling the merged block-diagonal structure (``merge_s``), the model
forward itself (``forward_s``) and prediction-cache bookkeeping
(``cache_s``).  The inference engine owns one, the pool workers report
their own per-plan deltas back through the result queue, and
:func:`repro.serve.workload.run_serving_workload` snapshots the counters
around each run so :class:`~repro.serve.workload.ServingReport` can
break service time down per phase.

The module lives under ``utils`` because both :mod:`repro.sampling`
(which instruments ``sample_merged``) and :mod:`repro.serve` (which
instruments forwards and the cache) need it without importing each
other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import Histogram

__all__ = ["PHASE_NAMES", "PhaseStats", "RankStats"]

#: the serving phases, in snapshot-tuple order
PHASE_NAMES = ("sample", "merge", "forward", "cache")


class PhaseStats:
    """Cumulative seconds spent per serving phase, histogram-backed.

    The mutation surface is unchanged from the original scalar fields —
    ``phases.sample_s += dt`` everywhere — but each ``+=`` now also
    lands the increment in a per-phase log2
    :class:`~repro.obs.metrics.Histogram`, so the same counters that
    feed :class:`~repro.serve.workload.ServingReport` totals expose
    exact bucket-derived p50/p95/p99 through the metrics registry.  The
    running totals use the identical float-add order the scalars did
    (the setter stores the caller-computed total verbatim), keeping
    every downstream number bitwise unchanged.

    In pool mode the sample/merge/forward counters are summed across
    rank workers that run concurrently, so they measure aggregate CPU
    time, not wall time — per-phase *shares* remain meaningful either
    way.

    Pass ``registry`` to register the four histograms in a
    :class:`~repro.obs.metrics.MetricRegistry` under
    ``<prefix>.<phase>_s`` (the engine does this); standalone instances
    (pool workers) own private histograms and ship them home with
    :meth:`hists_snapshot`.
    """

    __slots__ = ("_hists",)

    def __init__(self, *, registry=None, prefix: str = "serve.phase"):
        if registry is not None:
            self._hists = {
                name: registry.histogram(f"{prefix}.{name}_s") for name in PHASE_NAMES
            }
        else:
            self._hists = {name: Histogram() for name in PHASE_NAMES}

    # -- scalar facade (the historical mutation API) -------------------
    def _get(self, name: str) -> float:
        return self._hists[name].sum

    def _set(self, name: str, value: float) -> None:
        hist = self._hists[name]
        # callers write `phases.x_s += dt`: `value` is the new running
        # total they computed; the delta is what lands in the buckets
        hist.observe(value - hist.sum, total=value)

    sample_s = property(
        lambda self: self._get("sample"), lambda self, v: self._set("sample", v)
    )
    merge_s = property(
        lambda self: self._get("merge"), lambda self, v: self._set("merge", v)
    )
    forward_s = property(
        lambda self: self._get("forward"), lambda self, v: self._set("forward", v)
    )
    cache_s = property(
        lambda self: self._get("cache"), lambda self, v: self._set("cache", v)
    )

    def histogram(self, name: str) -> Histogram:
        """The backing histogram for one of :data:`PHASE_NAMES`."""
        return self._hists[name]

    def snapshot(self) -> tuple[float, float, float, float]:
        return (self.sample_s, self.merge_s, self.forward_s, self.cache_s)

    def add(self, other: "PhaseStats | tuple") -> None:
        """Fold another record (or a ``snapshot()`` tuple) into this one.

        Folding a full :class:`PhaseStats` (or :meth:`hists_snapshot`
        via :meth:`add_hists`) merges the distributions too; the tuple
        path only advances the totals (one synthetic sample per phase),
        exactly like the scalar implementation it replaced.
        """
        if isinstance(other, PhaseStats):
            for name in PHASE_NAMES:
                self._hists[name].merge(other._hists[name])
            return
        for name, value in zip(PHASE_NAMES, other):
            hist = self._hists[name]
            hist.observe(value, total=hist.sum + value)

    # -- cross-process folding -----------------------------------------
    def hists_snapshot(self) -> dict:
        """Picklable per-phase histogram snapshots (worker -> parent)."""
        return {name: self._hists[name].snapshot() for name in PHASE_NAMES}

    def add_hists(self, snaps: dict) -> None:
        """Fold a worker's :meth:`hists_snapshot` in, buckets included."""
        for name in PHASE_NAMES:
            self._hists[name].merge(snaps[name])


@dataclass
class RankStats:
    """Per-rank busy-time accounting for pool inference.

    One instance rides on the inference engine;
    :meth:`repro.exec.pool.WorkerPool.run_infer` folds each micro-batch's
    per-rank busy seconds into it (inline mode books everything on rank
    0).  ``imbalance`` — max over mean busy time — is the load-balance
    figure of merit: 1.0 is a perfectly level batch schedule, ``n`` is
    one rank doing all the work.  Kept separate from :class:`PhaseStats`
    (which sums phase CPU time across ranks) because balance needs the
    *per-rank* split, not the aggregate.
    """

    busy_s: list[float] = field(default_factory=list)
    batches: int = 0

    @classmethod
    def for_ranks(cls, n: int) -> "RankStats":
        return cls(busy_s=[0.0] * max(1, int(n)))

    def add_batch(self, busy_s) -> None:
        """Fold one micro-batch's per-rank busy seconds into the totals."""
        # a pool resize mid-run can widen the rank set; keep old totals
        self.busy_s.extend([0.0] * (len(busy_s) - len(self.busy_s)))
        for rank, b in enumerate(busy_s):
            self.busy_s[rank] += float(b)
        self.batches += 1

    @property
    def imbalance(self) -> float:
        """Max-over-mean busy time across ranks (1.0 = perfectly level)."""
        if not self.busy_s:
            return 1.0
        mean = sum(self.busy_s) / len(self.busy_s)
        return max(self.busy_s) / mean if mean > 0 else 1.0

    def snapshot(self) -> tuple:
        return (tuple(self.busy_s), self.batches)

    @staticmethod
    def delta(before: tuple, after: tuple) -> "RankStats":
        """The counters accumulated between two :meth:`snapshot` calls."""
        busy_b, batches_b = before
        busy_a, batches_a = after
        busy = [
            (busy_a[i] if i < len(busy_a) else 0.0)
            - (busy_b[i] if i < len(busy_b) else 0.0)
            for i in range(max(len(busy_a), len(busy_b)))
        ]
        return RankStats(busy_s=busy, batches=batches_a - batches_b)
