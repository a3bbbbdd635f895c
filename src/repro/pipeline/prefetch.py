"""Ordered prefetch executor: overlap sampling with computation.

The paper's central runtime mechanism (Sec. IV-B1) is running mini-batch
sampling on dedicated sampler cores *while* the trainer computes on the
previous batch.  :class:`OrderedPrefetcher` is the engine-agnostic core
of that pipeline: it executes a fixed sequence of sampling jobs on
``num_workers`` worker threads and hands the results to the consumer in
**strict submission order**, never running more than ``queue_depth``
jobs ahead of the consumer.

In-order delivery is what keeps the overlap *semantics-free*: as long as
every job is a pure function (the engine derives each step's RNG from
``(seed, epoch, step, rank)``), the consumer observes the exact batch
stream of the synchronous path — prefetching changes wall clock, never
numerics.  The engine's backends time the consumer's wait for each
batch themselves (``EpochStats.sample_wait``).
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["OrderedPrefetcher", "rank_step_prefetcher"]


class _Failure:
    """Wrapper marking a job's exception so it re-raises at its turn."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


class OrderedPrefetcher:
    """Run ``jobs`` on worker threads; yield results in submission order.

    Parameters
    ----------
    jobs:
        Sequence of zero-argument callables.  Job ``i``'s result is the
        ``i``-th item this iterator yields; a job's exception is re-raised
        at its position (later results are discarded).
    num_workers:
        Worker threads.  Effective parallelism is
        ``min(num_workers, queue_depth)`` — a worker only starts job
        ``i`` once ``i < delivered + queue_depth``.
    queue_depth:
        Lookahead bound: how many batches may exist beyond what the
        consumer has taken.  ``1`` is classic double buffering (sample
        batch ``i+1`` while the consumer computes on batch ``i``).
    worker_init:
        Optional callable run once in each worker thread before any job —
        the hook :func:`rank_step_prefetcher` uses to pin sampler threads
        to the sampler core set.  Failures are ignored (core binding is
        best effort, exactly like :func:`repro.platform.corebind.apply_binding`).

    Workers start immediately; call :meth:`close` (or use as a context
    manager, or drain the iterator) to join them.  ``close`` is
    idempotent and safe to call with jobs still queued.
    """

    def __init__(
        self,
        jobs: Iterable[Callable[[], object]],
        *,
        num_workers: int = 1,
        queue_depth: int = 2,
        worker_init: Callable[[], object] | None = None,
        name: str = "prefetch",
    ):
        self._jobs: Sequence[Callable[[], object]] = list(jobs)
        num_workers = check_positive_int(num_workers, "num_workers")
        self._queue_depth = check_positive_int(queue_depth, "queue_depth")
        self._worker_init = worker_init
        self._cv = threading.Condition()
        self._next_task = 0  # next job index a worker may claim
        self._next_out = 0  # next index the consumer takes
        self._results: dict[int, object] = {}
        self._closed = False
        n_threads = min(num_workers, max(1, len(self._jobs)))
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"{name}-{i}", daemon=True
            )
            for i in range(n_threads)
        ]
        for t in self._threads:
            t.start()

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        if self._worker_init is not None:
            try:
                self._worker_init()
            except Exception:
                pass  # binding is best effort; sampling proceeds unpinned
        while True:
            with self._cv:
                while (
                    not self._closed
                    and self._next_task < len(self._jobs)
                    and self._next_task >= self._next_out + self._queue_depth
                ):
                    self._cv.wait()
                if self._closed or self._next_task >= len(self._jobs):
                    return
                idx = self._next_task
                self._next_task += 1
            try:
                value: object = self._jobs[idx]()
            except BaseException as exc:
                value = _Failure(exc)
            with self._cv:
                if self._closed:
                    return
                self._results[idx] = value
                self._cv.notify_all()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> "OrderedPrefetcher":
        return self

    def __next__(self):
        with self._cv:
            if self._next_out >= len(self._jobs):
                raise StopIteration
            while self._next_out not in self._results:
                if self._closed:
                    raise RuntimeError(
                        "prefetcher closed with batches still pending"
                    )
                self._cv.wait()
            value = self._results.pop(self._next_out)
            self._next_out += 1
            self._cv.notify_all()  # window advanced: workers may claim jobs
        if isinstance(value, _Failure):
            self.close()
            raise value.exc
        return value

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and drop buffered results; idempotent."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        current = threading.current_thread()
        for t in self._threads:
            if t is not current:
                t.join()
        with self._cv:
            self._results.clear()

    def __enter__(self) -> "OrderedPrefetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


def rank_step_prefetcher(
    sampler,
    graph,
    plan: Sequence[np.ndarray],
    *,
    world_size: int,
    rank: int,
    seed: int,
    epoch: int,
    num_workers: int = 1,
    queue_depth: int = 2,
    sampling_cores: Iterable[int] | None = None,
) -> OrderedPrefetcher:
    """Prefetcher over one rank's sample stream for one engine epoch.

    Yields, per global step of ``plan``, the rank's sampled
    :class:`~repro.sampling.block.MiniBatch` (or ``None`` when the rank's
    chunk of that step is empty).  Each job re-derives its RNG as
    ``derive_rng(seed, "sample", epoch, step, rank)`` — the exact stream
    of the synchronous backends — so the delivered batches are
    bit-identical to sampling inline, whatever the worker/queue settings.

    ``sampling_cores``, when given, pins every sampler worker thread to
    that core set (ARGO's sampler-core binding, Sec. IV-B3); the trainer
    thread is left untouched.
    """
    # local imports: repro.exec imports this module's package consumers
    from repro.exec.base import acquire_batch
    from repro.platform.corebind import apply_binding

    def make_job(step: int, global_batch: np.ndarray):
        def job():
            # acquire_batch's synchronous branch IS the protocol (split,
            # empty-chunk convention, per-step RNG); running it on a
            # worker thread is what keeps prefetch-on bit-identical
            return acquire_batch(
                None,
                sampler,
                graph,
                global_batch,
                world_size=world_size,
                rank=rank,
                seed=seed,
                epoch=epoch,
                step=step,
            )

        return job

    cores = tuple(sampling_cores) if sampling_cores is not None else None
    worker_init = (lambda: apply_binding(cores)) if cores else None
    return OrderedPrefetcher(
        [make_job(step, gb) for step, gb in enumerate(plan)],
        num_workers=num_workers,
        queue_depth=queue_depth,
        worker_init=worker_init,
        name=f"sampler-r{rank}",
    )
