"""Sampling/compute overlap pipeline (paper Sec. IV-B1).

The subsystem that makes the ``s`` (samplers) axis of ARGO's design
space change wall clock instead of just the cost model:

* :class:`OrderedPrefetcher` — bounded, strictly in-order execution of
  sampling jobs on worker threads;
* :func:`rank_step_prefetcher` — one engine rank's per-epoch sample
  stream, prefetched bit-identically to the synchronous backends.
"""

from repro.pipeline.prefetch import OrderedPrefetcher, rank_step_prefetcher

__all__ = [
    "OrderedPrefetcher",
    "rank_step_prefetcher",
]
