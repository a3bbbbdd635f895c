"""Op-level profiling of real training steps (Fig. 2's evidence base).

The paper motivates multi-processing with a scheduler trace showing the
memory-intensive ``aten::index_select`` interleaved with compute-intensive
GEMMs.  This module instruments a real training step of this library and
reports where the time goes, so the claim can be checked on actual
execution rather than only on the simulator:

* ``gather``   — feature/row gathers, the aggregation sparse products
  and SAGE's concat-mean nodes (the irregular, bandwidth-bound phase);
* ``dense``    — the feature-update layers' fused GEMM + bias + ReLU +
  dropout nodes and bare GEMMs (compute-bound);
* ``sampling`` — mini-batch construction;
* ``backward`` — ``loss.backward()``, every VJP of the step;
* ``other``    — losses, bookkeeping, a block's one-off operator build.

``gather`` and ``dense`` time forward calls only, so the categories are
disjoint and sum to the measured wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.autograd import ops as ops_mod
from repro.autograd.functional import cross_entropy
from repro.autograd.tensor import Tensor
from repro.graph.datasets import GNNDataset
from repro.sampling.base import Sampler
from repro.utils.rng import derive_rng

__all__ = ["StepProfile", "profile_training_step"]


@dataclass
class StepProfile:
    """Aggregated wall time per op category for profiled steps."""

    seconds: dict = field(
        default_factory=lambda: dict.fromkeys(
            ("gather", "dense", "sampling", "backward", "other"), 0.0
        )
    )
    steps: int = 0

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def fraction(self, category: str) -> float:
        return self.seconds[category] / self.total if self.total else 0.0

    def summary(self) -> str:
        parts = ", ".join(
            f"{k}={v * 1e3:.1f}ms ({self.fraction(k):.0%})" for k, v in self.seconds.items()
        )
        return f"StepProfile[{self.steps} steps]: {parts}"


#: the timed ops and the category each one's forward call books into
_CATEGORIES = {
    "gather_rows": "gather",
    "sparse_product": "gather",
    "concat_mean": "gather",
    "matmul": "dense",
    "linear": "dense",
}


def _sites() -> list:
    """``(module, attribute, op)`` for every binding of a timed op.

    Ops are patched at every module that imported them by name, so all
    dispatch paths are covered: ``Linear`` binds the fused dense node as
    ``ops_linear``, and the block aggregations call ``sparse_product``
    (GCN) and ``concat_mean`` (SAGE) by name.  ``spmm`` is not patched:
    it runs through ``ops.sparse_product``, which is.
    """
    import repro.autograd.module as module_mod
    import repro.gnn.aggregate as agg_mod

    return [
        *((ops_mod, name, name) for name in _CATEGORIES),
        (module_mod, "ops_linear", "linear"),
        (agg_mod, "sparse_product", "sparse_product"),
        (agg_mod, "concat_mean", "concat_mean"),
    ]


@contextmanager
def _patched(profile: StepProfile):
    """Temporarily wrap every :func:`_sites` binding with a timer
    (single-threaded use)."""
    sites = _sites()
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in sites]
    base_fns = {name: getattr(ops_mod, name) for name in _CATEGORIES}

    def timed(name: str):
        orig, category = base_fns[name], _CATEGORIES[name]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            profile.seconds[category] += time.perf_counter() - t0
            return out

        return wrapper

    wrappers = {name: timed(name) for name in _CATEGORIES}
    for mod, attr, name in sites:
        setattr(mod, attr, wrappers[name])
    try:
        yield
    finally:
        for mod, attr, orig in originals:
            setattr(mod, attr, orig)


def profile_training_step(
    dataset: GNNDataset,
    sampler: Sampler,
    model,
    *,
    batch_size: int = 256,
    steps: int = 3,
    seed: int = 0,
) -> StepProfile:
    """Profile ``steps`` real forward+backward steps of ``model``.

    Note: the timing wrappers only catch the module attributes
    :func:`_sites` lists — every binding the built-in models call
    through — and time forward calls; ``loss.backward()`` is booked
    whole under ``backward``, and a block's one-off operator build lands
    in ``other``.
    """
    profile = StepProfile()
    feats = Tensor(dataset.features)
    rng = derive_rng(seed, "profile")
    total_wall = 0.0
    with _patched(profile):
        for _ in range(steps):
            t_start = time.perf_counter()
            seeds = rng.choice(
                dataset.num_nodes, size=min(batch_size, dataset.num_nodes), replace=False
            )
            t0 = time.perf_counter()
            batch = sampler.sample(dataset.graph, seeds, rng=rng)
            profile.seconds["sampling"] += time.perf_counter() - t0
            x = ops_mod.gather_rows(feats, batch.input_ids)
            out = model(batch.blocks, x)
            loss = cross_entropy(out, dataset.labels[batch.seeds])
            model.zero_grad()
            t0 = time.perf_counter()
            loss.backward()
            profile.seconds["backward"] += time.perf_counter() - t0
            total_wall += time.perf_counter() - t_start
            profile.steps += 1
    categorised = sum(v for k, v in profile.seconds.items() if k != "other")
    profile.seconds["other"] = max(0.0, total_wall - categorised)
    return profile
