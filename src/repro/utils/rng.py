"""Deterministic random-number management.

Every stochastic component in the library (graph generators, samplers,
tuners, the platform simulator's measurement noise) draws from a
``numpy.random.Generator`` derived from an explicit integer seed.  Nothing
reads global RNG state, so two runs with the same seeds are bit-identical —
a requirement for the search-algorithm comparisons in Tables IV/V where the
objective must be a deterministic function of (config, seed).
"""

from __future__ import annotations

import numpy as np

__all__ = ["derive_rng", "as_generator"]


def as_generator(seed_or_rng) -> np.random.Generator:
    """Coerce ``seed_or_rng`` into a ``numpy.random.Generator``.

    Accepts ``None`` (fresh non-deterministic generator), an integer seed,
    or an existing generator (returned unchanged).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def derive_rng(seed: int, *stream: int | str) -> np.random.Generator:
    """Return a generator for a named sub-stream of ``seed``.

    String stream components are hashed stably (FNV-1a) so that e.g.
    ``derive_rng(0, "sampler", rank)`` gives independent, reproducible
    streams per rank without the ranks' draws being correlated.
    """
    keys = [seed & 0xFFFFFFFF]
    for part in stream:
        if isinstance(part, str):
            h = 2166136261
            for ch in part.encode():
                h = ((h ^ ch) * 16777619) & 0xFFFFFFFF
            keys.append(h)
        else:
            keys.append(int(part) & 0xFFFFFFFF)
    return np.random.default_rng(keys)
