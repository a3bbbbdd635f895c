"""Dependency-free metrics: counters, gauges, log2-bucketed histograms.

One :class:`MetricRegistry` per process is the unified sink for every
accounting number the serving stack produces (span durations, batcher
flush causes, transport hits).  Serving timings arrive through the span
recorder (:mod:`repro.obs.trace`), which folds every span it records
into a ``serve.phase.<span>_s`` histogram here.  Histograms use fixed power-of-two
bucket boundaries so two processes that never exchanged state bucket
identically — `snapshot()` documents are mergeable across ranks with
plain element-wise adds, and the quantiles derived from the merged
buckets are exact functions of the buckets (deterministic, no
interpolation between observed samples).
"""

from __future__ import annotations

import math

METRICS_SCHEMA_VERSION = 1

# default boundaries: 2**-20 s (~1 us) .. 2**6 s (64 s) — covers
# everything from a single cache probe to a full pool launch
DEFAULT_LO_EXP = -20
DEFAULT_HI_EXP = 6


class Counter:
    """Monotonic counter.  ``inc`` only; merges by addition."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1):
        if n < 0:
            raise ValueError("Counter.inc requires a non-negative increment")
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}

    def merge(self, snap: dict) -> None:
        self.value += snap["value"]


#: gauge merge policies: how two processes' point-in-time values fold.
#: Both are commutative and associative, so a merged gauge is the same
#: regardless of merge order — the registry's determinism contract.
GAUGE_POLICIES = ("max", "min")


class Gauge:
    """Point-in-time value with an explicit, order-independent merge policy.

    A gauge is *not* additive, so cross-rank folding needs a declared
    policy.  Last-write-wins (the obvious default) is merge-order
    dependent — folding rank snapshots ``A, B`` vs ``B, A`` would report
    different values, contradicting the registry's "same result
    regardless of merge order" contract — so it is deliberately not
    offered.  ``"max"`` (default: high-water marks like queue depth or
    generation) and ``"min"`` are both commutative and associative.

    An unset gauge (``set`` never called) is neutral under merge: it
    adopts the other side's value rather than dragging a phantom 0.0
    into a min/max fold.
    """

    __slots__ = ("value", "policy", "_set")

    def __init__(self, policy: str = "max") -> None:
        if policy not in GAUGE_POLICIES:
            raise ValueError(
                f"gauge policy must be one of {GAUGE_POLICIES}, got {policy!r}"
            )
        self.value = 0.0
        self.policy = policy
        self._set = False

    def set(self, value: float) -> None:
        self.value = value
        self._set = True

    def snapshot(self) -> dict:
        return {
            "type": "gauge",
            "value": self.value,
            "policy": self.policy,
            "is_set": self._set,
        }

    def merge(self, snap: dict) -> None:
        policy = snap.get("policy", self.policy)
        if policy != self.policy:
            raise ValueError(
                f"cannot merge a {policy!r}-policy gauge into a "
                f"{self.policy!r}-policy one"
            )
        if not snap.get("is_set", True):
            return
        if not self._set:
            self.value = snap["value"]
            self._set = True
        elif self.policy == "max":
            self.value = max(self.value, snap["value"])
        else:
            self.value = min(self.value, snap["value"])


class Histogram:
    """Fixed log2-bucketed histogram with exact bucket-derived quantiles.

    Bucket boundaries are ``2**e for e in [lo_exp, hi_exp]``: bucket 0
    holds everything below ``2**lo_exp`` (including zero/negative
    clock jitter), the last bucket everything at or above
    ``2**hi_exp``.  ``sum`` is the plain float sum of the observations.
    A histogram pickles as itself, so a worker ships it whole and the
    parent folds it in with :meth:`merge`.
    """

    __slots__ = ("lo_exp", "hi_exp", "counts", "count", "sum", "min", "max")

    def __init__(self, lo_exp: int = DEFAULT_LO_EXP, hi_exp: int = DEFAULT_HI_EXP):
        if hi_exp <= lo_exp:
            raise ValueError("Histogram requires hi_exp > lo_exp")
        self.lo_exp = int(lo_exp)
        self.hi_exp = int(hi_exp)
        # buckets: (-inf, 2**lo], then one per exponent, then [2**hi, inf)
        self.counts = [0] * (self.hi_exp - self.lo_exp + 2)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    # -- observation ---------------------------------------------------
    def _bucket(self, value: float) -> int:
        if value < 2.0**self.lo_exp:
            return 0
        if value >= 2.0**self.hi_exp:
            return len(self.counts) - 1
        # buckets 1..n-2 cover [2**(lo+i-1), 2**(lo+i))
        return int(math.floor(math.log2(value))) - self.lo_exp + 1

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.counts[self._bucket(value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    # -- quantiles -----------------------------------------------------
    def bucket_bounds(self) -> list[float]:
        """Upper bound of each bucket (the last is ``inf``)."""
        bounds = [2.0**e for e in range(self.lo_exp, self.hi_exp + 1)]
        return bounds + [math.inf]

    def percentile(self, q: float) -> float:
        """Exact bucket upper bound holding the q-th percentile sample.

        Deterministic by construction: the answer depends only on the
        bucket counts, so merged cross-rank histograms report the same
        quantile regardless of merge order.  Returns 0.0 when empty;
        the overflow bucket reports the tracked ``max``.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 < q <= 100.0:
            raise ValueError("percentile requires 0 < q <= 100")
        target = math.ceil(self.count * q / 100.0)
        bounds = self.bucket_bounds()
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                if math.isinf(bounds[i]):
                    return float(self.max if self.max is not None else 0.0)
                return bounds[i]
        return float(self.max if self.max is not None else 0.0)  # pragma: no cover

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    # -- folding -------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "lo_exp": self.lo_exp,
            "hi_exp": self.hi_exp,
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def merge(self, snap: dict | Histogram) -> None:
        """Fold another histogram (or its snapshot) into this one."""
        if isinstance(snap, Histogram):
            # read the fields directly: a fold computes no quantiles
            snap = {key: getattr(snap, key) for key in Histogram.__slots__}
        if snap["lo_exp"] != self.lo_exp or snap["hi_exp"] != self.hi_exp:
            raise ValueError("cannot merge histograms with different bucket layouts")
        for i, c in enumerate(snap["counts"]):
            self.counts[i] += c
        self.count += snap["count"]
        self.sum += snap["sum"]
        if snap["min"] is not None:
            self.min = snap["min"] if self.min is None else min(self.min, snap["min"])
        if snap["max"] is not None:
            self.max = snap["max"] if self.max is None else max(self.max, snap["max"])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricRegistry:
    """Get-or-create registry; one per engine/process.

    ``snapshot()`` emits the versioned metrics document; ``merge()``
    folds another process's document in (cross-rank folding), creating
    instruments it has not seen yet.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = _KINDS[kind](**kwargs)
            self._metrics[name] = metric
        elif type(metric) is not _KINDS[kind]:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, "counter")

    def gauge(self, name: str, *, policy: str = "max") -> Gauge:
        gauge = self._get(name, "gauge", policy=policy)
        if gauge.policy != policy:
            raise ValueError(
                f"gauge {name!r} already registered with policy {gauge.policy!r}"
            )
        return gauge

    def histogram(
        self,
        name: str,
        *,
        lo_exp: int = DEFAULT_LO_EXP,
        hi_exp: int = DEFAULT_HI_EXP,
    ) -> Histogram:
        return self._get(name, "histogram", lo_exp=lo_exp, hi_exp=hi_exp)

    def get(self, name: str):
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "metrics": {name: self._metrics[name].snapshot() for name in self.names()},
        }

    def merge(self, doc: dict) -> None:
        """Fold a ``snapshot()`` document from another process in."""
        version = doc.get("schema_version", METRICS_SCHEMA_VERSION)
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(f"unsupported metrics schema_version {version}")
        for name, snap in doc["metrics"].items():
            kind = snap["type"]
            if kind == "histogram":
                metric = self._get(
                    name, kind, lo_exp=snap["lo_exp"], hi_exp=snap["hi_exp"]
                )
            elif kind == "gauge":
                metric = self._get(name, kind, policy=snap.get("policy", "max"))
            else:
                metric = self._get(name, kind)
            metric.merge(snap)
