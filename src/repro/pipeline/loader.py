"""Prefetching wrapper around :class:`~repro.sampling.dataloader.NodeDataLoader`.

``PrefetchingLoader`` turns the loader's ``num_workers`` metadata into an
actual sampler pipeline: ``num_workers`` sampler threads sample future
batches into a bounded queue while the consumer computes on the current
one, with **strict in-order delivery** — the batch stream is
bit-identical to iterating the wrapped loader directly, because every
batch's RNG is a pure function of ``(seed, epoch, rank, step)``
(:meth:`NodeDataLoader.sample_batch`).

The threads run on :class:`repro.pipeline.prefetch.OrderedPrefetcher`:
zero setup cost, with overlap coming from numpy releasing the GIL inside
the vectorised sampling kernels and during the consumer's compute.
``sampling_cores`` pins them to the sampler core set, reproducing
ARGO's core binding.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.pipeline.prefetch import OrderedPrefetcher, PrefetchStats
from repro.platform.corebind import apply_binding
from repro.sampling.block import MiniBatch
from repro.sampling.dataloader import NodeDataLoader
from repro.utils.validation import check_positive_int

__all__ = ["PrefetchingLoader"]


class PrefetchingLoader:
    """Overlapped, in-order mini-batch delivery over a ``NodeDataLoader``.

    Parameters
    ----------
    loader:
        The wrapped loader.  Its ``num_workers`` is the default worker
        count; its seed/epoch/rank state drives the (unchanged) batch
        stream.
    num_workers:
        Sampler threads (default: ``loader.num_workers``).
    queue_depth:
        Lookahead bound — at most this many batches beyond the one the
        consumer holds are sampled ahead.
    sampling_cores:
        Optional core ids to pin the sampler threads to.

    The loader holds no cross-epoch resources: each iteration starts its
    own threads and joins them when the epoch ends.  :meth:`close` (or
    the context manager) only retires the loader.
    """

    def __init__(
        self,
        loader: NodeDataLoader,
        *,
        num_workers: int | None = None,
        queue_depth: int = 2,
        sampling_cores: Iterable[int] | None = None,
    ):
        self.loader = loader
        self.num_workers = check_positive_int(
            loader.num_workers if num_workers is None else num_workers, "num_workers"
        )
        self.queue_depth = check_positive_int(queue_depth, "queue_depth")
        self.sampling_cores = (
            tuple(sampling_cores) if sampling_cores is not None else None
        )
        self._closed = False
        #: lifetime queue-dynamics record, folded over every epoch
        self.stats = PrefetchStats(
            num_workers=self.num_workers, queue_depth=self.queue_depth
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.loader)

    def set_epoch(self, epoch: int) -> None:
        self.loader.set_epoch(epoch)

    @property
    def epoch(self) -> int:
        return self.loader.epoch

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[MiniBatch]:
        if self._closed:
            raise ValueError("loader is closed")
        return self._iter_thread()

    def _iter_thread(self) -> Iterator[MiniBatch]:
        loader = self.loader

        def make_job(step: int, seeds: np.ndarray):
            return lambda: loader.sample_batch(step, seeds)

        jobs = [make_job(step, seeds) for step, seeds in enumerate(loader.batch_seeds())]
        cores = self.sampling_cores
        prefetcher = OrderedPrefetcher(
            jobs,
            num_workers=self.num_workers,
            queue_depth=self.queue_depth,
            worker_init=(lambda: apply_binding(cores)) if cores else None,
            name="loader-prefetch",
        )
        try:
            yield from prefetcher
        finally:
            prefetcher.close()
            self.stats.wait_time += prefetcher.stats.wait_time
            self.stats.busy_time += prefetcher.stats.busy_time
            self.stats.batches += prefetcher.stats.batches

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retire the loader; it cannot iterate again."""
        self._closed = True

    def __enter__(self) -> "PrefetchingLoader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
