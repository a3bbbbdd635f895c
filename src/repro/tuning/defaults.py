"""Default configurations: library guidelines and runtime-knob defaults.

Both DGL and PyG publish CPU best-practice guides (paper refs [24], [25])
prescribing a single training process with a small number of dataloader
workers and the remaining cores for compute.  The paper uses these as the
static ``Default`` column of Tables IV/V.

This module also carries the runtime pipeline's knob defaults: the
queue-depth values the autotuner searches when the overlap pipeline's
lookahead bound is made a tunable axis (``BackendSpace(...,
queue_depths=QUEUE_DEPTH_CHOICES)``), and a helper assembling the full
searched space for a platform.
"""

from __future__ import annotations

from repro.platform.library import LibraryProfile
from repro.platform.spec import PlatformSpec

__all__ = [
    "default_config",
    "DEFAULT_QUEUE_DEPTH",
    "QUEUE_DEPTH_CHOICES",
    "default_backend_space",
]

#: static lookahead used when the tuner does not search the axis — one
#: batch beyond double buffering absorbs sampler jitter without hoarding
#: memory
DEFAULT_QUEUE_DEPTH = 2

#: the queue-depth axis the autotuner searches: powers of two from plain
#: double buffering (1) to deep lookahead (8); beyond that the bounded
#: queue's memory grows with no hiding left to buy
QUEUE_DEPTH_CHOICES: tuple[int, ...] = (1, 2, 4, 8)


def default_config(
    library: LibraryProfile, platform: PlatformSpec, cores: int | None = None
) -> tuple[int, int, int]:
    """The library-guideline static configuration ``(1, workers, rest)``."""
    return library.default_config(platform, cores)


def default_backend_space(
    platform: PlatformSpec,
    *,
    max_processes: int = 8,
    backends=("inline", "process"),
    queue_depths=QUEUE_DEPTH_CHOICES,
):
    """The full searched runtime space for ``platform``.

    ``(n, s, t)`` from the canonical :class:`~repro.tuning.space.ConfigSpace`,
    crossed with the execution backends and the queue-depth axis —
    everything :meth:`repro.core.config.RuntimeConfig.from_tuple` can
    round-trip into an engine configuration.
    """
    from repro.tuning.space import BackendSpace, ConfigSpace

    base = ConfigSpace.for_platform(platform, max_processes=max_processes)
    return BackendSpace(base, backends=backends, queue_depths=queue_depths)
