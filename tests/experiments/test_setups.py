"""Experiment setup plumbing."""

import gc
import weakref

import pytest

from repro.experiments import setups
from repro.experiments.setups import (
    DATASET_NAMES,
    PAPER_SETUPS,
    ExperimentSetup,
    build_runtime,
)
from repro.platform.simulator import SimulatedRuntime
from repro.tuning.space import ConfigSpace


class TestExperimentSetup:
    def test_full_matrix_size(self):
        assert len(PAPER_SETUPS) == 2 * 4 * 2 * 2

    def test_label(self):
        s = ExperimentSetup("neighbor-sage", "reddit", "icelake", "dgl")
        assert s.label == "DGL-neighbor-sage-reddit@icelake"

    @pytest.mark.parametrize(
        "bad",
        [
            dict(task="cluster", dataset="reddit", platform="icelake", library="dgl"),
            dict(task="neighbor-sage", dataset="reddit", platform="arm", library="dgl"),
            dict(task="neighbor-sage", dataset="reddit", platform="icelake", library="jax"),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExperimentSetup(**bad)


class TestBuildRuntime:
    def test_returns_runtime_and_space(self):
        rt, space = build_runtime(
            ExperimentSetup("neighbor-sage", "flickr", "sapphire", "dgl")
        )
        assert isinstance(rt, SimulatedRuntime)
        assert isinstance(space, ConfigSpace)
        assert space.total_cores == 64

    def test_caching_shares_workload(self):
        a, _ = build_runtime(ExperimentSetup("neighbor-sage", "flickr", "icelake", "dgl"))
        b, _ = build_runtime(ExperimentSetup("neighbor-sage", "flickr", "sapphire", "pyg"))
        assert a.cost_model.workload is b.cost_model.workload

    def test_different_tasks_get_different_workloads(self):
        a, _ = build_runtime(ExperimentSetup("neighbor-sage", "flickr", "icelake", "dgl"))
        b, _ = build_runtime(ExperimentSetup("shadow-gcn", "flickr", "icelake", "dgl"))
        assert a.cost_model.workload is not b.cost_model.workload

    def test_dataset_names_cover_table3(self):
        assert DATASET_NAMES == ["flickr", "reddit", "ogbn-products", "ogbn-papers100M"]

    def test_runtimes_over_many_world_seeds_keep_one_dataset_alive(self, monkeypatch):
        # the runtimes hold measured curves, not the dataset they were
        # measured on, and the dataset cache holds one entry
        built, load_dataset = [], setups.load_dataset

        def load(name, seed):
            ds = load_dataset(name, seed=seed)
            built.append(weakref.ref(ds))
            return ds

        monkeypatch.setattr(setups, "load_dataset", load)
        rts = [
            build_runtime(ExperimentSetup("neighbor-sage", "flickr", "icelake", "dgl"), seed=s)
            for s in (9001, 9002, 9003)
        ]
        gc.collect()
        assert len(built) == 3
        assert sum(ref() is not None for ref in built) <= 1
        assert all(rt.cost_model.workload.samples for rt, _ in rts)
