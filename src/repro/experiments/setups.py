"""Experiment setup plumbing shared by all benchmarks.

An :class:`ExperimentSetup` names one cell of the paper's evaluation
matrix — (task, dataset, platform, library) — and :func:`build_runtime`
turns it into a ready :class:`SimulatedRuntime` + :class:`ConfigSpace`,
with workload models cached per (dataset, sampler) pair because the
measurement pass is the only expensive step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.gnn.models import TASKS, make_task
from repro.graph.datasets import load_dataset
from repro.platform.costmodel import CostModel
from repro.platform.library import LIBRARIES
from repro.platform.simulator import SimulatedRuntime
from repro.platform.spec import PLATFORMS
from repro.tuning.space import ConfigSpace
from repro.workload.model import WorkloadModel

__all__ = ["ExperimentSetup", "build_runtime", "PAPER_SETUPS", "DATASET_NAMES"]

DATASET_NAMES = ["flickr", "reddit", "ogbn-products", "ogbn-papers100M"]


@dataclass(frozen=True)
class ExperimentSetup:
    """One cell of the evaluation matrix."""

    task: str  # "neighbor-sage" | "shadow-gcn"
    dataset: str  # paper dataset name
    platform: str  # "icelake" | "sapphire"
    library: str  # "dgl" | "pyg"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.platform not in PLATFORMS:
            raise ValueError(f"unknown platform {self.platform!r}")
        if self.library not in LIBRARIES:
            raise ValueError(f"unknown library {self.library!r}")

    @property
    def label(self) -> str:
        return f"{self.library.upper()}-{self.task}-{self.dataset}@{self.platform}"


#: the full evaluation matrix of Tables IV/V (2 x 4 x 2 x 2 = 32 cells)
PAPER_SETUPS = [
    ExperimentSetup(task, ds, plat, lib)
    for task in TASKS
    for ds in DATASET_NAMES
    for plat in PLATFORMS
    for lib in LIBRARIES
]


# one dataset at a time: a caller that walks world seeds (or datasets)
# would otherwise pin every one it has built for the life of the process;
# the workload models below keep only their measured curves
@lru_cache(maxsize=1)
def _dataset(name: str, seed: int):
    return load_dataset(name, seed=seed)


@lru_cache(maxsize=None)
def _workload(dataset: str, task: str, seed: int) -> WorkloadModel:
    ds = _dataset(dataset, seed)
    sampler, _ = make_task(task, ds.layer_dims(3), seed=seed)
    return WorkloadModel(ds, sampler, num_batches=4, seed=seed)


def build_runtime(
    setup: ExperimentSetup, *, seed: int = 0, noise: float = 0.015
) -> tuple[SimulatedRuntime, ConfigSpace]:
    """Instantiate the simulator + design space for one evaluation cell."""
    ds = _dataset(setup.dataset, seed)
    platform = PLATFORMS[setup.platform]
    library = LIBRARIES[setup.library]
    sampler_name, model_name = TASKS[setup.task]
    cm = CostModel(
        platform,
        library,
        _workload(setup.dataset, setup.task, seed),
        sampler_name=sampler_name,
        model_name=model_name,
        dims=ds.layer_dims(3),
        train_nodes=ds.spec.paper_train_nodes,
    )
    return SimulatedRuntime(cm, noise=noise, seed=seed), ConfigSpace(platform.total_cores)
