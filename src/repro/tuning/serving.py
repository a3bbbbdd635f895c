"""The serving design space: what the autotuner searches online.

Training tuning searches ``(n, s, t, ...)``; serving has its own knob
set — pool ``workers``, micro-batcher ``max_batch`` / ``max_wait_ms``
and prediction-cache ``cache_entries`` — all numerically identical but
with different overhead/latency trade-offs — with its own objective: not
epoch time but *SLO-aware latency/throughput*.  :class:`ServingSpace`
enumerates the cross product and is duck-compatible with
:class:`~repro.tuning.space.ConfigSpace` everywhere the searchers need
(``configs``/``features``/``index``/``neighbors``/``paper_budget``/
``random_config``), so the existing
:class:`~repro.core.autotuner.OnlineAutoTuner` drives it unchanged.

:func:`slo_objective` is the scalarisation: minimise inverse throughput,
multiplicatively penalised when the p99 latency overshoots the SLO —
a configuration that meets the SLO is ranked purely by throughput, one
that misses it must buy its way back with a lot of throughput.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ServingConfig",
    "ServingSpace",
    "slo_objective",
]

#: one point of the serving space
ServingConfig = tuple  # (workers, max_batch, max_wait_ms, cache_entries)


def _axis(values, name, *, allow_zero=False, numeric=float):
    out = tuple(sorted({numeric(v) for v in values}))
    if not out:
        raise ValueError(f"{name} must be non-empty")
    lo = 0 if allow_zero else 1
    if any(v < lo for v in out):
        raise ValueError(f"{name} values must be >= {lo}, got {out}")
    return out


class ServingSpace:
    """Finite enumeration of serving configurations.

    Points are ``(workers, max_batch, max_wait_ms, cache_entries)``.
    ``workers`` is the pool size the inference engine runs (`1` works
    inline-equivalently but still exercises the pool path);
    ``cache_entries`` may include ``0`` — caching disabled — so the
    tuner can learn whether the workload's skew pays for a cache at all.
    """

    def __init__(
        self,
        *,
        workers=(1, 2),
        max_batches=(1, 2, 4, 8, 16),
        max_waits_ms=(0.5, 2.0, 8.0),
        cache_sizes=(0, 256, 4096),
    ):
        self.workers = _axis(workers, "workers", numeric=int)
        self.max_batches = _axis(max_batches, "max_batches", numeric=int)
        self.max_waits_ms = _axis(max_waits_ms, "max_waits_ms", allow_zero=True)
        self.cache_sizes = _axis(cache_sizes, "cache_sizes", allow_zero=True, numeric=int)
        self.configs: list[ServingConfig] = [
            (w, b, wait, c)
            for w in self.workers
            for b in self.max_batches
            for wait in self.max_waits_ms
            for c in self.cache_sizes
        ]
        self._index = {cfg: i for i, cfg in enumerate(self.configs)}
        self._axes = (
            self.workers,
            self.max_batches,
            self.max_waits_ms,
            self.cache_sizes,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self):
        return iter(self.configs)

    def __contains__(self, cfg) -> bool:
        return tuple(cfg) in self._index

    def index(self, cfg: ServingConfig) -> int:
        return self._index[tuple(cfg)]

    def paper_budget(self, fraction: float = 0.05) -> int:
        """Search budget covering ``fraction`` of the space (cf. ConfigSpace)."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        return max(3, int(round(fraction * len(self))))

    # ------------------------------------------------------------------
    def features(self) -> np.ndarray:
        """Normalised ``[0, 1]^4`` surrogate features, one row per config.

        The axes are log-scaled (counts and waits both span orders of
        magnitude; latency responds to their ratios) with ``+1`` shifts
        so the zero-valued points (no wait, no cache) stay finite.
        """

        def norm(value, values):
            lo = np.log2(min(values) + 1.0)
            hi = np.log2(max(values) + 1.0)
            if hi == lo:
                return 0.0
            return (np.log2(value + 1.0) - lo) / (hi - lo)

        feats = np.zeros((len(self.configs), 4), dtype=np.float64)
        for i, cfg in enumerate(self.configs):
            for j, (value, values) in enumerate(zip(cfg, self._axes)):
                feats[i, j] = norm(value, values)
        return feats

    def neighbors(self, cfg: ServingConfig) -> list[ServingConfig]:
        """One-step moves along each axis (simulated-annealing moves)."""
        if cfg not in self:
            raise KeyError(f"{cfg} not in space")
        out: list[ServingConfig] = []
        cfg = tuple(cfg)
        for j, values in enumerate(self._axes):
            k = values.index(cfg[j])
            for dk in (-1, 1):
                if 0 <= k + dk < len(values):
                    cand = list(cfg)
                    cand[j] = values[k + dk]
                    out.append(tuple(cand))
        return out

    def random_config(self, rng: np.random.Generator) -> ServingConfig:
        return self.configs[int(rng.integers(len(self.configs)))]


def slo_objective(report, *, slo_ms: float, penalty: float = 10.0) -> float:
    """Scalar score (lower is better) for one serving measurement.

    ``(1 + penalty · relative p99 overshoot) / throughput`` — inside the
    SLO this is pure inverse throughput; every percent of p99 overshoot
    multiplies the score, so the BO surrogate learns a sharp cliff at
    the deadline instead of trading tail latency away linearly.
    """
    if slo_ms <= 0:
        raise ValueError(f"slo_ms must be > 0, got {slo_ms}")
    if penalty <= 0:
        raise ValueError(f"penalty must be > 0, got {penalty}")
    overshoot = max(0.0, report.p99_ms / float(slo_ms) - 1.0)
    return (1.0 + float(penalty) * overshoot) / max(report.throughput_rps, 1e-9)
