"""Op-level profiling of real training steps (Fig. 2's evidence base).

The paper motivates multi-processing with a scheduler trace showing the
memory-intensive ``aten::index_select`` interleaved with compute-intensive
GEMMs.  This module instruments a real training step of this library and
reports where the time goes, so the claim can be checked on actual
execution rather than only on the simulator:

* ``gather``   — feature/row gathers, their backward scatter-adds and
  the aggregation sparse products (the irregular, bandwidth-bound phase);
* ``dense``    — the feature-update layers' fused GEMM + bias + ReLU +
  dropout nodes and bare GEMMs (compute-bound);
* ``sampling`` — mini-batch construction;
* ``other``    — losses, optimizer, bookkeeping.
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

    seconds: dict = field(default_factory=lambda: {"gather": 0.0, "dense": 0.0, "sampling": 0.0, "other": 0.0})
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


@contextmanager
def _patched(profile: StepProfile):
    """Temporarily wrap the hot ops with timers (single-threaded use).

    Ops are patched at every module that imported them by name (the model
    and aggregation modules bind ``gather_rows``, ``sparse_product`` etc.
    at import time), so all dispatch paths are covered.  ``spmm`` is not
    patched: it runs through ``ops.sparse_product``, which is.
    """
    import repro.autograd.module as module_mod
    import repro.gnn.aggregate as agg_mod
    import repro.gnn.sage as sage_mod

    categories = {
        "gather_rows": "gather",
        "sparse_product": "gather",
        "matmul": "dense",
        "linear": "dense",
    }
    # (module, attribute, ops-function it aliases): every import-time
    # binding of a hot op must be patched — Linear binds the fused node
    # as ``ops_linear``, the block aggregations call ``sparse_product``
    # and SAGE calls ``gather_rows`` by name
    sites = [
        (ops_mod, "gather_rows", "gather_rows"),
        (ops_mod, "sparse_product", "sparse_product"),
        (ops_mod, "matmul", "matmul"),
        (ops_mod, "linear", "linear"),
        (module_mod, "ops_linear", "linear"),
        (agg_mod, "sparse_product", "sparse_product"),
        (sage_mod, "gather_rows", "gather_rows"),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in sites]
    base_fns = {name: getattr(ops_mod, name) for name in categories}

    def timed(name: str):
        orig, category = base_fns[name], categories[name]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = orig(*args, **kwargs)
            profile.seconds[category] += time.perf_counter() - t0
            return out

        return wrapper

    wrappers = {name: timed(name) for name in categories}
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
    :func:`_patched` lists — every binding the built-in models call
    through — and time forward calls; the backward pass, the optimizer
    and a block's one-off operator build land in ``other``.
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
            loss.backward()
            total_wall += time.perf_counter() - t_start
            profile.steps += 1
    categorised = (
        profile.seconds["gather"] + profile.seconds["dense"] + profile.seconds["sampling"]
    )
    profile.seconds["other"] = max(0.0, total_wall - categorised)
    return profile
