"""The ARGO configuration design space.

A configuration is ``(n, s, t)``: the number of GNN training processes,
and the sampling/training cores bound to *each* process (paper Sec. V).
The canonical space uses the whole machine for each candidate — processes
split the cores evenly (``s + t = total // n``) and the split point ``s``
is free:

    n in {1, ..., max_processes},  s in [1, total//n - 1],  t = total//n - s.

This yields 295 configurations on the 112-core Ice Lake and 164 on the
64-core Sapphire Rapids.  The paper reports 726 and 408 for its grid; the
exact enumeration rule is not published, so our space is smaller but
spans the same axes and ranges — the auto-tuner's search *fraction*
(5-6%) is preserved by scaling the budget to our space size
(see :meth:`paper_budget`).

``features()`` maps configs to a normalised ``[0, 1]^2`` cube —
``(log2(n)/log2(n_max), s/(s+t))`` — the GP surrogate's input space.
Core counts enter the second coordinate as a *fraction*, which makes the
landscape comparably smooth across process counts (Fig. 7's heatmaps use
the same two axes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.spec import PlatformSpec
from repro.utils.validation import check_positive_int

__all__ = ["ConfigSpace", "BackendSpace"]

Config = tuple[int, int, int]
#: a config extended with an execution-backend name (BackendSpace points);
#: with a searched queue depth the points grow to (n, s, t, backend, q)
BackendConfig = tuple[int, int, int, str]


def _paper_budget(space_size: int, fraction: float) -> int:
    """Search budget covering ``fraction`` of a space (paper: 5-6%)."""
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return max(3, int(round(fraction * space_size)))


class ConfigSpace:
    """Finite enumeration of valid runtime configurations.

    The canonical space is 2-D per process count (``t`` is determined by
    ``s``); :meth:`full3d` builds the higher-dimensional variant of the
    paper's Sec. VII-B discussion where the training-core count is a free
    third axis (configurations may deliberately leave cores idle).
    """

    def __init__(
        self,
        total_cores: int,
        *,
        max_processes: int = 8,
        process_counts=None,
        _configs: list[Config] | None = None,
        _three_d: bool = False,
    ):
        total_cores = check_positive_int(total_cores, "total_cores")
        if total_cores < 2:
            raise ValueError("need at least 2 cores (1 sampling + 1 training)")
        if process_counts is None:
            max_processes = check_positive_int(max_processes, "max_processes")
            process_counts = range(1, max_processes + 1)
        self.total_cores = total_cores
        self.process_counts = sorted({int(n) for n in process_counts})
        if not self.process_counts or self.process_counts[0] < 1:
            raise ValueError("process_counts must be positive")
        self.three_d = bool(_three_d)
        if _configs is not None:
            configs = list(_configs)
        else:
            configs = []
            for n in self.process_counts:
                per_proc = total_cores // n
                if per_proc < 2:
                    continue
                for s in range(1, per_proc):
                    configs.append((n, s, per_proc - s))
        if not configs:
            raise ValueError(f"no valid configurations for {total_cores} cores")
        self.configs: list[Config] = configs
        self._index = {cfg: i for i, cfg in enumerate(configs)}
        self._max_n = max(n for n, _, _ in configs)
        self._features: np.ndarray | None = None

    @classmethod
    def for_platform(cls, platform: PlatformSpec, **kwargs) -> "ConfigSpace":
        return cls(platform.total_cores, **kwargs)

    @classmethod
    def full3d(cls, total_cores: int, *, max_processes: int = 8) -> "ConfigSpace":
        """The 3-D design space: ``t`` free, cores may stay idle.

        Every ``(n, s, t)`` with ``n * (s + t) <= total_cores`` is a
        candidate — the exponential growth the paper's Sec. VII-B warns
        pruning-based search about (e.g. ~9000 points on 112 cores vs the
        canonical 295).
        """
        total_cores = check_positive_int(total_cores, "total_cores")
        max_processes = check_positive_int(max_processes, "max_processes")
        configs: list[Config] = []
        for n in range(1, max_processes + 1):
            budget = total_cores // n
            if budget < 2:
                continue
            for s in range(1, budget):
                for t in range(1, budget - s + 1):
                    configs.append((n, s, t))
        return cls(
            total_cores,
            max_processes=max_processes,
            _configs=configs,
            _three_d=True,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self):
        return iter(self.configs)

    def __contains__(self, cfg) -> bool:
        return tuple(cfg) in self._index

    def index(self, cfg: Config) -> int:
        return self._index[tuple(cfg)]

    def paper_budget(self, fraction: float = 0.05) -> int:
        """Search budget covering ``fraction`` of the space (paper: 5-6%)."""
        return _paper_budget(len(self), fraction)

    # ------------------------------------------------------------------
    def features(self) -> np.ndarray:
        """Normalised surrogate features, one row per config.

        Canonical spaces use 2 dims (log process count, sampling split);
        3-D spaces add core utilisation ``n (s + t) / total`` as a third
        coordinate (otherwise distinct configs would collide).  Built once
        and returned read-only: every tuner over this space shares it.
        """
        if self._features is not None:
            return self._features
        d = 3 if self.three_d else 2
        feats = np.zeros((len(self.configs), d), dtype=np.float64)
        log_max = np.log2(max(self._max_n, 2))
        for i, (n, s, t) in enumerate(self.configs):
            feats[i, 0] = np.log2(n) / log_max
            feats[i, 1] = s / (s + t)
            if self.three_d:
                feats[i, 2] = n * (s + t) / self.total_cores
        feats.flags.writeable = False
        self._features = feats
        return feats

    def neighbors(self, cfg: Config) -> list[Config]:
        """Adjacent configurations (simulated-annealing moves).

        Moves: shift the sampling/training split by ±1, or change the
        process count by one step (re-scaling the split fraction).
        """
        n, s, t = cfg
        if cfg not in self:
            raise KeyError(f"{cfg} not in space")
        out: list[Config] = []
        for ds in (-1, 1):
            cand = (n, s + ds, t - ds)
            if cand in self:
                out.append(cand)
        if self.three_d:
            # the utilisation axis: grow/shrink one side independently
            for cand in ((n, s + 1, t), (n, s - 1, t), (n, s, t + 1), (n, s, t - 1)):
                if cand in self and cand not in out:
                    out.append(cand)
        idx = self.process_counts.index(n)
        frac = s / (s + t)
        for dn in (-1, 1):
            j = idx + dn
            if 0 <= j < len(self.process_counts):
                n2 = self.process_counts[j]
                per = self.total_cores // n2
                if per >= 2:
                    s2 = min(per - 1, max(1, int(round(frac * per))))
                    cand = (n2, s2, per - s2)
                    if cand in self:
                        out.append(cand)
        return out

    def random_config(self, rng: np.random.Generator) -> Config:
        return self.configs[int(rng.integers(len(self.configs)))]


class BackendSpace:
    """A :class:`ConfigSpace` crossed with a set of execution backends.

    Points are ``(n, s, t, backend)`` — the original design space plus a
    categorical axis over :mod:`repro.exec` backend names, so the online
    autotuner can discover e.g. where ``process`` ranks overtake the
    sequential ``inline`` reference.  Passing ``queue_depths`` adds the
    overlap pipeline's lookahead bound as a further axis: points become
    ``(n, s, t, backend, queue_depth)`` and
    :meth:`repro.core.config.RuntimeConfig.from_tuple` maps them to
    prefetch-enabled configs, making ``queue_depth`` a searched runtime
    knob rather than a hand-set constant.  The class is duck-compatible
    with :class:`ConfigSpace` everywhere the tuners need it
    (``configs``, ``features``, ``index``, ``neighbors``,
    ``paper_budget``, ``random_config``); ``RuntimeConfig.from_tuple``
    accepts its 4- and 5-tuples directly.
    """

    def __init__(
        self,
        base: ConfigSpace,
        backends=("inline", "process"),
        *,
        queue_depths=None,
    ):
        from repro.exec import available_backends  # lazy: avoid import cycle

        # normalize like get_backend; dedupe, keep order
        backends = tuple(dict.fromkeys(str(b).lower() for b in backends))
        if not backends:
            raise ValueError("BackendSpace needs at least one backend")
        unknown = set(backends) - set(available_backends())
        if unknown:
            raise ValueError(
                f"unknown backends {sorted(unknown)}; available: "
                f"{sorted(available_backends())}"
            )
        if queue_depths is not None:
            queue_depths = tuple(sorted({check_positive_int(q, "queue_depth") for q in queue_depths}))
            if not queue_depths:
                raise ValueError("queue_depths must be non-empty when given")
        self.base = base
        self.backends = backends
        self.queue_depths: tuple[int, ...] | None = queue_depths
        self.total_cores = base.total_cores
        if queue_depths is None:
            self.configs: list[BackendConfig] = [
                (n, s, t, b) for b in backends for (n, s, t) in base.configs
            ]
        else:
            self.configs = [
                (n, s, t, b, q)
                for q in queue_depths
                for b in backends
                for (n, s, t) in base.configs
            ]
        self._index = {cfg: i for i, cfg in enumerate(self.configs)}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self):
        return iter(self.configs)

    def __contains__(self, cfg) -> bool:
        return tuple(cfg) in self._index

    def index(self, cfg: BackendConfig) -> int:
        return self._index[tuple(cfg)]

    def paper_budget(self, fraction: float = 0.05) -> int:
        return _paper_budget(len(self), fraction)

    def features(self) -> np.ndarray:
        """Base features plus one normalised categorical backend column
        (and, with searched depths, a log-scaled queue-depth column)."""
        base_feats = self.base.features()
        k = len(self.backends)
        extra = 1 if self.queue_depths is None else 2
        rows = np.zeros(
            (len(self.configs), base_feats.shape[1] + extra), dtype=np.float64
        )
        n_base = len(self.base.configs)
        block = k * n_base  # rows per queue-depth value
        depths = (None,) if self.queue_depths is None else self.queue_depths
        log_max_q = np.log2(max(depths[-1], 2)) if self.queue_depths else 1.0
        for qi, q in enumerate(depths):
            for bi in range(k):
                lo = qi * block + bi * n_base
                hi = lo + n_base
                rows[lo:hi, : base_feats.shape[1]] = base_feats
                rows[lo:hi, base_feats.shape[1]] = bi / max(1, k - 1)
                if q is not None:
                    rows[lo:hi, -1] = np.log2(q) / log_max_q
        return rows

    def neighbors(self, cfg: BackendConfig) -> list[BackendConfig]:
        """Base-space moves at the same backend, plus backend flips (and,
        with searched depths, one-step queue-depth moves)."""
        if cfg not in self:
            raise KeyError(f"{cfg} not in space")
        if self.queue_depths is None:
            n, s, t, b = cfg
            tail: tuple = ()
        else:
            n, s, t, b, q = cfg
            tail = (q,)
        out = [
            (n2, s2, t2, b, *tail) for (n2, s2, t2) in self.base.neighbors((n, s, t))
        ]
        bi = self.backends.index(b)
        for db in (-1, 1):
            j = bi + db
            if 0 <= j < len(self.backends):
                out.append((n, s, t, self.backends[j], *tail))
        if self.queue_depths is not None:
            qi = self.queue_depths.index(q)
            for dq in (-1, 1):
                j = qi + dq
                if 0 <= j < len(self.queue_depths):
                    out.append((n, s, t, b, self.queue_depths[j]))
        return out

    def random_config(self, rng: np.random.Generator) -> BackendConfig:
        return self.configs[int(rng.integers(len(self.configs)))]
