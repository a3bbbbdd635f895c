"""Steady-state training and serving loops leave no cyclic garbage.

Everything an epoch or a batch allocates must die by reference count.
A reference cycle on a per-epoch path pins whatever it reaches until a
full collection, which a steady loop almost never triggers, so the heap
grows with run length.  Each case warms its loop up, then runs more
iterations with automatic collection off and ``gc.DEBUG_SAVEALL`` on,
and requires the collector to find nothing.
"""

import gc
from collections import Counter

import numpy as np
import pytest

from repro.core.engine import MultiProcessEngine
from repro.gnn.models import make_task
from repro.serve import InferenceEngine, ModelSnapshot


def _collect_garbage(step, rounds: int) -> dict[str, int]:
    """Run ``step`` ``rounds`` times with gc off; count what gc then finds."""
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(rounds):
            step()
        gc.collect()
        names = (getattr(obj, "__qualname__", type(obj).__qualname__) for obj in gc.garbage)
        return dict(Counter(names))
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _engine(dataset, *, backend, processes, prefetch=False):
    sampler, model = make_task(
        "neighbor-sage", dataset.layer_dims(2), seed=0, fanouts=[5, 5]
    )
    return MultiProcessEngine(
        dataset, sampler, model, num_processes=processes, global_batch_size=128,
        backend=backend, seed=0, prefetch=prefetch,
        sampler_workers=2 if prefetch else 1,
    )


@pytest.mark.parametrize(
    "backend,processes,prefetch",
    [("inline", 1, False), ("inline", 1, True), ("process", 2, False)],
    ids=["inline", "inline-prefetch", "process2"],
)
def test_training_epochs_leave_no_cyclic_garbage(tiny_dataset, backend, processes, prefetch):
    with _engine(tiny_dataset, backend=backend, processes=processes, prefetch=prefetch) as eng:
        eng.train(2)  # warm-up: pool launch, lazy operators, prefetch thread
        garbage = _collect_garbage(eng.train_epoch, rounds=3)
    assert garbage == {}


def test_pool_serving_and_reload_leave_no_cyclic_garbage(tiny_dataset):
    eng = _engine(tiny_dataset, backend="inline", processes=1)
    first = ModelSnapshot.from_engine(eng)
    eng.train(1)
    second = ModelSnapshot.from_engine(eng)
    eng.shutdown()
    batches = [tiny_dataset.val_idx[i : i + 8] for i in range(0, 48, 8)]
    snaps = iter([second, first, second])

    with InferenceEngine(
        first, tiny_dataset, mode="pool", workers=2, cache_entries=0, timeout=30.0
    ) as server:
        for nodes in batches[:2]:  # warm-up: pool launch, first publish
            server.predict(nodes)
        server.reload(next(snaps))

        def step():
            for nodes in batches:
                assert np.isfinite(server.predict(nodes)).all()
            server.reload(next(snaps))

        garbage = _collect_garbage(step, rounds=2)
    assert garbage == {}
