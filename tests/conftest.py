"""Shared fixtures: small cached datasets and workload/cost stacks.

Everything heavier than a unit graph is session-scoped so the few hundred
tests share one construction.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.graph import load_dataset, from_edge_index
from repro.gnn.models import make_task
from repro.platform import ICE_LAKE_8380H, DGL
from repro.platform.costmodel import CostModel
from repro.tuning import ConfigSpace
from repro.workload import WorkloadModel


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: takes several seconds (whole examples, real runs)")


def _shm_segments() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


@pytest.fixture(scope="session", autouse=True)
def dev_shm_leak_guard():
    """Fail the session if a shared-memory segment it created survives it."""
    if not os.path.isdir("/dev/shm"):
        yield
        return
    before = _shm_segments()
    yield
    gc.collect()  # let unreferenced owners run their unlink safety nets
    leaked = sorted(_shm_segments() - before)
    if leaked:
        pytest.fail(f"{len(leaked)} /dev/shm segment(s) outlived the test session: {leaked}")


@pytest.fixture(scope="session")
def tiny_dataset():
    """1024-node products stand-in: fast enough for every unit test."""
    return load_dataset("ogbn-products", seed=0, scale_override=10)


@pytest.fixture(scope="session")
def small_dataset():
    """4096-node instance for integration tests."""
    return load_dataset("ogbn-products", seed=0, scale_override=12)


@pytest.fixture(scope="session")
def neighbor_task(tiny_dataset):
    sampler, model = make_task("neighbor-sage", tiny_dataset.layer_dims(3), seed=0)
    return sampler, model


@pytest.fixture(scope="session")
def shadow_task(tiny_dataset):
    sampler, model = make_task("shadow-gcn", tiny_dataset.layer_dims(3), seed=0)
    return sampler, model


@pytest.fixture(scope="session")
def neighbor_workload(tiny_dataset, neighbor_task):
    sampler, _ = neighbor_task
    return WorkloadModel(tiny_dataset, sampler, num_batches=2, seed=0)


@pytest.fixture(scope="session")
def dgl_cost_model(tiny_dataset, neighbor_workload):
    return CostModel(
        ICE_LAKE_8380H,
        DGL,
        neighbor_workload,
        sampler_name="neighbor",
        model_name="sage",
        dims=tiny_dataset.layer_dims(3),
        train_nodes=tiny_dataset.spec.paper_train_nodes,
    )


@pytest.fixture(scope="session")
def icelake_space():
    return ConfigSpace(ICE_LAKE_8380H.total_cores)


@pytest.fixture
def diamond_graph():
    """The Fig. 5 toy graph: nodes 1..8 (0-indexed 0..7).

    Edges (directed into the aggregating node):
    2<-3, 2<-4, 1<-2, 5<-2 style diamond with two seeds sharing node 2.
    """
    src = np.array([2, 3, 0, 4, 5, 6])
    dst = np.array([1, 1, 1, 2, 2, 2])
    return from_edge_index(src, dst, 7)
