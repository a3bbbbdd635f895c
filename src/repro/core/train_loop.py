"""Ready-made training functions for the ARGO wrapper.

:func:`make_train_fn` turns a (dataset, sampler-factory, model) triple
into the ``train(config=..., epochs=...)`` callable the :class:`ARGO`
runtime expects — the equivalent of the user's Listing 2 program after
the Listing 3 modifications.  Each call rebuilds the Multi-Process Engine
for the requested process count (ARGO re-launches training to reallocate
processes) while *reusing the same model object*, so learning progresses
across the tuner's re-launches exactly as in the paper.
"""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np

from repro.autograd.functional import accuracy
from repro.autograd.module import Module
from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor, no_grad
from repro.core.config import RuntimeConfig
from repro.core.engine import MultiProcessEngine
from repro.graph.datasets import GNNDataset
from repro.platform.corebind import CoreBinder
from repro.platform.spec import PlatformSpec
from repro.sampling.base import Sampler
from repro.utils.rng import derive_rng

__all__ = ["make_train_fn", "evaluate_accuracy"]


def evaluate_accuracy(
    dataset: GNNDataset,
    sampler: Sampler,
    model: Module,
    nodes: np.ndarray | None = None,
    *,
    max_nodes: int = 1024,
    seed: int = 0,
) -> float:
    """Sampled-subgraph accuracy of ``model`` on ``nodes`` (default: test split)."""
    if nodes is None:
        nodes = dataset.test_idx[:max_nodes]
    nodes = np.asarray(nodes, dtype=np.int64)[:max_nodes]
    if len(nodes) == 0:
        return 0.0
    was_training = model.training
    model.eval()
    batch = sampler.sample(dataset.graph, nodes, rng=derive_rng(seed, "acc-eval"))
    with no_grad():
        x = gather_rows(Tensor(dataset.features), batch.input_ids)
        out = model(batch.blocks, x)
        acc = accuracy(out, dataset.labels[batch.seeds])
    model.train(was_training)
    return acc


def make_train_fn(
    dataset: GNNDataset,
    sampler: Sampler,
    model: Module,
    *,
    global_batch_size: int = 1024,
    lr: float = 3e-3,
    optimizer: str = "adam",
    backend: str | None = None,
    backend_options: dict | None = None,
    platform: PlatformSpec | None = None,
    seed: int = 0,
) -> Callable:
    """Build the ``train(config=..., epochs=...)`` callable for ARGO.

    The returned function trains the *shared* ``model`` for the requested
    epochs under the given :class:`RuntimeConfig` and returns the list of
    measured epoch times.  A fresh engine is constructed per call (the
    process count may change between calls), seeded by a monotone counter
    so every epoch uses a distinct shuffle.

    Backend *instances*, however, are cached across calls: the process
    backend's persistent worker pool and shared-memory graph store
    survive the tuner's engine reconstructions, so a re-launch that
    keeps ``n`` costs a weight memcpy instead of ``n`` forks — trials
    measure steady-state throughput, not launch tax.  (The pool rebinds
    itself whenever the configuration's ``n`` changes.)  Call
    ``train.close()`` when done with the function to stop cached pools
    and unlink their segments; dropping the last reference does the same
    via a finalizer.

    ``backend`` fixes the execution backend for every call; the default
    ``None`` defers to each config's own :attr:`RuntimeConfig.backend`,
    which lets the autotuner search over backends
    (:class:`repro.tuning.space.BackendSpace`).  ``backend_options``
    (e.g. ``{"timeout": 600}`` for slow hosts) is forwarded to every
    engine's backend constructor — leave it ``None`` when configs mix
    backends with incompatible options.  When a ``platform`` is given
    and the resolved backend is ``process``, the config's ``(n, s, t)``
    is turned into real core bindings via
    :class:`repro.platform.corebind.CoreBinder` — worker processes then
    pin themselves with ``sched_setaffinity``.

    With ``config.prefetch`` on, each engine runs the sampling/compute
    overlap pipeline with ``config.sampling_cores`` sampler workers per
    rank and lookahead ``config.queue_depth`` — the tuner's ``s`` knob
    then changes measured epoch time, not just the cost model, while the
    loss trajectory stays bit-identical to the synchronous path.
    """
    state = {"epoch_offset": 0}
    #: backend instances shared across the tuner's engine re-launches —
    #: the persistent pool / shm store live here, not in any one engine
    shared_backends: dict[str, object] = {}

    def _close_backends(backends: dict) -> None:
        # best effort per backend: this also runs from a finalizer at
        # interpreter exit, where one backend's half-torn-down mp state
        # must not stop the others from releasing pools and segments
        for b in backends.values():
            try:
                b.shutdown()
            except Exception:
                pass
        backends.clear()

    def train(*, config: RuntimeConfig, epochs: int) -> list[float]:
        from repro.exec import get_backend

        resolved = backend if backend is not None else config.backend
        bindings = None
        if platform is not None and resolved == "process":
            binder = CoreBinder(platform)
            bindings = binder.bind(
                config.num_processes, config.sampling_cores, config.training_cores
            )
        if resolved not in shared_backends:
            shared_backends[resolved] = get_backend(resolved, **(backend_options or {}))
        engine = MultiProcessEngine(
            dataset,
            sampler,
            model,
            num_processes=config.num_processes,
            global_batch_size=global_batch_size,
            lr=lr,
            optimizer=optimizer,
            backend=shared_backends[resolved],
            bindings=bindings,
            seed=seed,
            prefetch=config.prefetch,
            queue_depth=config.queue_depth,
            sampler_workers=config.sampling_cores,
            persistent=config.persistent,
        )
        # continue the epoch-shuffle sequence across re-launches
        engine._epoch = state["epoch_offset"]
        times = []
        for _ in range(epochs):
            stats = engine.train_epoch()
            times.append(stats.epoch_time)
        state["epoch_offset"] = engine._epoch
        # the engine trained the shared ``model`` object itself, so the
        # next launch resumes from its weights with nothing to copy back
        return times

    train.close = lambda: _close_backends(shared_backends)
    #: the cached backend instances (diagnostics: inspect live pools)
    train.backends = shared_backends
    # GC safety net: whoever drops the train fn without close() still
    # releases pools and segments
    weakref.finalize(train, _close_backends, shared_backends)
    return train
