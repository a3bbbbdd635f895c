"""OrderedPrefetcher: in-order delivery, bounded lookahead, failure paths."""

import threading
import time

import pytest

from repro.pipeline.prefetch import OrderedPrefetcher, rank_step_prefetcher


def jobs_returning(values, delays=None):
    delays = delays or [0.0] * len(values)

    def make(v, d):
        def job():
            if d:
                time.sleep(d)
            return v

        return job

    return [make(v, d) for v, d in zip(values, delays)]


class TestOrdering:
    def test_results_in_submission_order(self):
        with OrderedPrefetcher(jobs_returning(list(range(20))), num_workers=4) as pf:
            assert list(pf) == list(range(20))

    def test_order_survives_adversarial_delays(self):
        # early jobs slow, late jobs instant: out-of-completion-order
        delays = [0.03, 0.02, 0.0, 0.0, 0.01, 0.0]
        with OrderedPrefetcher(
            jobs_returning(list(range(6)), delays), num_workers=4, queue_depth=6
        ) as pf:
            assert list(pf) == list(range(6))

    def test_single_worker(self):
        with OrderedPrefetcher(jobs_returning([3, 1, 2]), num_workers=1) as pf:
            assert list(pf) == [3, 1, 2]

    def test_len(self):
        pf = OrderedPrefetcher(jobs_returning([1, 2]), num_workers=1)
        assert len(pf) == 2
        pf.close()


class TestQueueDepth:
    def test_lookahead_bounded(self):
        """No job may start more than queue_depth ahead of deliveries.

        The consumer-side ``delivered`` counter lags the prefetcher's
        internal take-index by at most the one batch in the consumer's
        hands, so the observable bound is ``delivered + depth`` inclusive.
        """
        depth = 2
        started = []
        delivered = [0]
        lock = threading.Lock()
        violations = []

        def make(i):
            def job():
                with lock:
                    started.append(i)
                    if i > delivered[0] + depth:
                        violations.append(i)
                return i

            return job

        pf = OrderedPrefetcher([make(i) for i in range(12)], num_workers=4, queue_depth=depth)
        out = []
        for v in pf:
            out.append(v)
            with lock:
                delivered[0] += 1
        pf.close()
        assert out == list(range(12))
        assert not violations, violations

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            OrderedPrefetcher([], num_workers=0)
        with pytest.raises(ValueError):
            OrderedPrefetcher([], queue_depth=0)


class TestFailure:
    def test_job_error_raises_at_its_turn(self):
        def boom():
            raise RuntimeError("boom")

        jobs = jobs_returning([0, 1]) + [boom] + jobs_returning([3])
        pf = OrderedPrefetcher(jobs, num_workers=2, queue_depth=4)
        assert next(pf) == 0
        assert next(pf) == 1
        with pytest.raises(RuntimeError, match="boom"):
            next(pf)
        pf.close()

    def test_next_after_close_with_pending_raises(self):
        pf = OrderedPrefetcher(jobs_returning([1], delays=[0.2]), num_workers=1)
        pf.close()
        with pytest.raises((RuntimeError, StopIteration)):
            next(pf)


class TestLifecycle:
    def test_close_idempotent(self):
        pf = OrderedPrefetcher(jobs_returning([1, 2, 3]), num_workers=2)
        pf.close()
        pf.close()

    def test_close_with_unconsumed_jobs(self):
        pf = OrderedPrefetcher(
            jobs_returning(list(range(50)), [0.001] * 50), num_workers=2
        )
        next(pf)
        pf.close()  # must not hang or raise

    def test_worker_init_runs_in_every_worker(self):
        seen = set()
        lock = threading.Lock()

        def init():
            with lock:
                seen.add(threading.current_thread().name)

        barrier = threading.Barrier(2, timeout=5)
        with OrderedPrefetcher(
            [barrier.wait for _ in range(2)],
            num_workers=2,
            queue_depth=2,
            worker_init=init,
        ) as pf:
            list(pf)
        assert len(seen) == 2

    def test_worker_init_failure_is_ignored(self):
        def bad_init():
            raise OSError("no affinity here")

        with OrderedPrefetcher(
            jobs_returning([7]), num_workers=1, worker_init=bad_init
        ) as pf:
            assert list(pf) == [7]


class TestRankStepPrefetcher:
    def test_matches_synchronous_stream(self, tiny_dataset, neighbor_task):
        import numpy as np

        from repro.exec.base import rank_chunk
        from repro.utils.rng import derive_rng

        sampler, _ = neighbor_task
        rng_plan = np.random.default_rng(0)
        plan = [
            rng_plan.choice(tiny_dataset.train_idx, size=32, replace=False)
            for _ in range(4)
        ]
        for rank in (0, 1):
            sync = []
            for step, gb in enumerate(plan):
                seeds = rank_chunk(gb, 2, rank)
                rng = derive_rng(5, "sample", 0, step, rank)
                sync.append(sampler.sample(tiny_dataset.graph, seeds, rng=rng))
            pf = rank_step_prefetcher(
                sampler,
                tiny_dataset.graph,
                plan,
                world_size=2,
                rank=rank,
                seed=5,
                epoch=0,
                num_workers=2,
                queue_depth=4,
            )
            got = list(pf)
            pf.close()
            assert len(got) == len(sync)
            for a, b in zip(got, sync):
                np.testing.assert_array_equal(a.seeds, b.seeds)
                np.testing.assert_array_equal(a.input_ids, b.input_ids)

    def test_empty_chunk_yields_none(self, tiny_dataset, neighbor_task):
        import numpy as np

        sampler, _ = neighbor_task
        # 1-element global batch over 2 ranks: rank 1's chunk is empty
        plan = [tiny_dataset.train_idx[:1]]
        pf = rank_step_prefetcher(
            sampler,
            tiny_dataset.graph,
            plan,
            world_size=2,
            rank=1,
            seed=0,
            epoch=0,
            num_workers=1,
            queue_depth=1,
        )
        assert list(pf) == [None]
        pf.close()
