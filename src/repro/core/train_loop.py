"""Ready-made training functions for the ARGO wrapper.

:func:`make_train_fn` turns a (dataset, sampler, model) triple into the
``train(config=..., epochs=...)`` callable the :class:`ARGO` runtime
expects — the equivalent of the user's Listing 2 program after the
Listing 3 modifications.  ARGO re-launches training to reallocate
processes; here a re-launch reconfigures one Multi-Process Engine in
place, so the model, the optimizer state and the epoch-shuffle sequence
carry over and the tuner changes speed, never training.
"""

from __future__ import annotations

from dataclasses import replace
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

    The returned function trains ``model`` for the requested epochs under
    the given :class:`RuntimeConfig` and returns the list of measured
    epoch times.  It drives one :class:`MultiProcessEngine` (exposed as
    ``train.engine``); every call applies its config through
    :meth:`MultiProcessEngine.reconfigure`.  Adam's moments and step
    count, the epoch counter behind the shuffles and the history
    (``train.engine.history``) therefore continue across calls: a run
    whose configs never change trains bit-identically to one plain
    engine at that config.  The engine keeps its backends warm across
    calls, so a re-launch that keeps ``n`` costs a weight memcpy instead
    of ``n`` forks (the pool parks or rejoins workers when ``n``
    changes).  Call ``train.close()`` — ``train.engine.shutdown()`` — when
    done, to stop its pools and unlink their segments.

    ``backend`` fixes the execution backend for every call; the default
    ``None`` defers to each config's own :attr:`RuntimeConfig.backend`,
    which lets the autotuner search over backends
    (:class:`repro.tuning.space.BackendSpace`).  ``backend_options``
    (e.g. ``{"timeout": 600}`` for slow hosts) is forwarded to every
    backend the engine creates — leave it ``None`` when configs mix
    backends with incompatible options.  When a ``platform`` is given
    and the resolved backend is ``process``, the config's ``(n, s, t)``
    is turned into real core bindings via
    :class:`repro.platform.corebind.CoreBinder` — worker processes then
    pin themselves with ``sched_setaffinity``.

    With ``config.prefetch`` on, the engine runs the sampling/compute
    overlap pipeline with ``config.sampling_cores`` sampler workers per
    rank and lookahead ``config.queue_depth`` — the tuner's ``s`` knob
    then changes measured epoch time, not just the cost model, while the
    loss trajectory stays bit-identical to the synchronous path.
    """
    engine = MultiProcessEngine(
        dataset,
        sampler,
        model,
        global_batch_size=global_batch_size,
        lr=lr,
        optimizer=optimizer,
        backend_options=backend_options,
        seed=seed,
    )

    def train(*, config: RuntimeConfig, epochs: int) -> list[float]:
        if backend is not None:
            config = replace(config, backend=backend)
        bindings = None
        if platform is not None and config.backend == "process":
            bindings = CoreBinder(platform).bind(
                config.num_processes, config.sampling_cores, config.training_cores
            )
        engine.reconfigure(config, bindings=bindings)
        return [engine.train_epoch().epoch_time for _ in range(epochs)]

    train.engine = engine
    train.close = engine.shutdown
    return train
