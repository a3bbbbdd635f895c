"""Sampling/compute overlap pipeline (paper Sec. IV-B1).

The subsystem that makes the ``s`` (samplers) axis of ARGO's design
space change wall clock instead of just the cost model:

* :class:`OrderedPrefetcher` — bounded, strictly in-order execution of
  sampling jobs on worker threads;
* :func:`rank_step_prefetcher` — one engine rank's per-epoch sample
  stream, prefetched bit-identically to the synchronous backends;
* :class:`PrefetchingLoader` — user-facing wrapper running a
  :class:`~repro.sampling.dataloader.NodeDataLoader`'s sampling on
  ``num_workers`` sampler threads.
"""

from repro.pipeline.loader import PrefetchingLoader
from repro.pipeline.prefetch import OrderedPrefetcher, PrefetchStats, rank_step_prefetcher

__all__ = [
    "OrderedPrefetcher",
    "PrefetchStats",
    "PrefetchingLoader",
    "rank_step_prefetcher",
]
