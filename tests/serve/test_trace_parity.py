"""Tracing must be free of numerics: traced predictions are bitwise
identical to untraced ones (and to the per-node reference) across every
execution mode and request shape, and the trace arena must never outlive
its engine — clean close and SIGKILL-mid-plan included."""

import os
import threading
import time

import numpy as np
import pytest

from repro.serve.engine import InferenceEngine
from tests.serve.test_frontier_parity import REQUEST_SHAPES, predict_as, reference

has_dev_shm = os.path.isdir("/dev/shm")
needs_dev_shm = pytest.mark.skipif(not has_dev_shm, reason="no /dev/shm to inspect")

#: the sweep: (mode, request shape)
CONFIGS = [(mode, shape) for mode in ("inline", "pool") for shape in REQUEST_SHAPES]


def shm_segments() -> frozenset:
    return frozenset(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))


def make_engine(snapshot, dataset, mode, *, tracing):
    return InferenceEngine(
        snapshot,
        dataset,
        mode=mode,
        workers=2,
        cache_entries=0,  # every request computes: nothing hides behind hits
        timeout=60.0,
        tracing=tracing,
    )


class TestTraceParity:
    @pytest.mark.parametrize("mode,shape", CONFIGS)
    def test_traced_predictions_bit_identical(
        self, tiny_dataset, trained_snapshot, mode, shape
    ):
        nodes = tiny_dataset.val_idx[:10]
        with make_engine(trained_snapshot, tiny_dataset, mode, tracing=False) as plain:
            expected = predict_as(plain, nodes, shape)
        with make_engine(trained_snapshot, tiny_dataset, mode, tracing=True) as traced:
            got = predict_as(traced, nodes, shape)
            records = traced.trace_arena.drain()
        np.testing.assert_array_equal(got, expected)  # bitwise, not approx
        np.testing.assert_array_equal(
            expected, reference(trained_snapshot, tiny_dataset, nodes)
        )
        assert records, "tracing enabled but no spans recorded"

    def test_traced_spans_cover_the_serving_phases(
        self, tiny_dataset, trained_snapshot
    ):
        from repro.obs.trace import CANONICAL_SPANS

        with make_engine(trained_snapshot, tiny_dataset, "pool", tracing=True) as eng:
            eng.predict(tiny_dataset.val_idx[:10])
            names = {
                CANONICAL_SPANS[r.name_id] for r in eng.trace_arena.drain()
            }
        # engine-side spans plus the workers' plan/sample/forward rings
        assert {"predict", "cache", "barrier", "launch", "plan",
                "sample", "forward"} <= names

    def test_tracing_off_keeps_null_recorder(self, tiny_dataset, trained_snapshot):
        with make_engine(trained_snapshot, tiny_dataset, "inline", tracing=False) as eng:
            assert eng.trace_arena is None
            assert eng.recorder.enabled is False
            eng.predict(tiny_dataset.val_idx[:4])


class TestTraceArenaLifecycle:
    @needs_dev_shm
    @pytest.mark.parametrize("mode", ["inline", "pool"])
    def test_close_unlinks_trace_segments(
        self, tiny_dataset, trained_snapshot, mode
    ):
        before = shm_segments()
        eng = make_engine(trained_snapshot, tiny_dataset, mode, tracing=True)
        try:
            eng.predict(tiny_dataset.val_idx[:6])
        finally:
            eng.close()
        assert shm_segments() == before
        assert eng.trace_arena is None
        eng.close()  # idempotent

    @needs_dev_shm
    def test_sigkill_mid_plan_leaks_nothing(self, tiny_dataset, trained_snapshot):
        """SIGKILL a traced pool worker mid-InferPlan: predict fails
        cleanly and close() still unlinks every segment, trace rings
        included (the killed worker never ran its finally block)."""
        from repro.sampling.base import Sampler
        from repro.sampling.neighbor import NeighborSampler

        class SlowSampler(NeighborSampler):
            def sample(self, graph, seeds, *, rng=None):
                time.sleep(0.1)
                return super().sample(graph, seeds, rng=rng)

            # loop through the napping `sample`, not the fused kernel
            sample_merged = Sampler.sample_merged

        before = shm_segments()
        eng = make_engine(trained_snapshot, tiny_dataset, "pool", tracing=True)
        eng.sampler = SlowSampler([5, 5])
        try:
            errors: list[BaseException] = []

            def run():
                try:
                    eng.predict(tiny_dataset.val_idx[:8])
                except BaseException as exc:
                    errors.append(exc)

            t = threading.Thread(target=run)
            t.start()
            deadline = time.monotonic() + 10.0
            victim = None
            while time.monotonic() < deadline and victim is None:
                pool = eng.pool
                if pool is not None and pool.procs:
                    victim = pool.procs[0]
                else:
                    time.sleep(0.01)
            assert victim is not None, "pool never launched"
            time.sleep(0.3)  # let the InferPlan land in the worker
            victim.kill()
            t.join(60.0)
            assert not t.is_alive(), "predict did not fail after worker kill"
            assert errors, "killed worker produced no error"
        finally:
            eng.close()
        assert shm_segments() == before
