"""Op-level step profiler."""

import numpy as np
import pytest

from repro.gnn.models import make_task
from repro.platform.profiling import StepProfile, _sites, profile_training_step


class TestStepProfile:
    def test_fractions_sum_to_one(self):
        prof = StepProfile()
        prof.seconds = {"gather": 1.0, "dense": 2.0, "sampling": 1.0, "other": 0.0}
        total = sum(prof.fraction(k) for k in prof.seconds)
        assert total == pytest.approx(1.0)

    def test_summary_renders(self):
        prof = StepProfile()
        prof.seconds["dense"] = 0.5
        prof.steps = 2
        assert "dense" in prof.summary()
        assert "2 steps" in prof.summary()

    def test_empty_profile_fraction_zero(self):
        assert StepProfile().fraction("gather") == 0.0


class TestProfileTrainingStep:
    @pytest.fixture(scope="class")
    def profile(self, request):
        ds = request.getfixturevalue("tiny_dataset")
        sampler, model = make_task("neighbor-sage", ds.layer_dims(3), seed=0)
        return profile_training_step(ds, sampler, model, batch_size=128, steps=2)

    def test_all_categories_observed(self, profile):
        """A real GNN step spends measurable time in sampling, gathers and
        GEMMs — the mixed workload of the paper's Fig. 2."""
        assert profile.steps == 2
        for cat in ("gather", "dense", "sampling", "backward"):
            assert profile.seconds[cat] > 0.0, cat

    def test_buckets_bounded_by_total(self, profile):
        assert profile.seconds["other"] >= 0.0
        assert profile.total > 0
        assert list(profile.seconds) == ["gather", "dense", "sampling", "backward", "other"]

    def test_patching_is_temporary(self, tiny_dataset):
        import repro.autograd.ops as ops_mod
        import repro.gnn.aggregate as agg_mod

        before = (ops_mod.gather_rows, ops_mod.spmm, agg_mod.spmm)
        sampler, model = make_task("neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5])
        profile_training_step(tiny_dataset, sampler, model, batch_size=32, steps=1)
        assert (ops_mod.gather_rows, ops_mod.spmm, agg_mod.spmm) == before


class TestFusedSites:
    """The model path's fused dense node times as ``dense`` and its
    block aggregation nodes as ``gather``, on both paper tasks."""

    #: the bindings outside ``ops`` each model's forward calls through
    REACHED = {
        "neighbor-sage": {
            ("repro.autograd.module", "ops_linear"),
            ("repro.gnn.aggregate", "concat_mean"),
        },
        "shadow-gcn": {
            ("repro.autograd.module", "ops_linear"),
            ("repro.gnn.aggregate", "sparse_product"),
        },
    }

    def test_every_site_exists_and_binds_its_op(self):
        import repro.autograd.ops as ops_mod

        for mod, attr, name in _sites():
            assert getattr(mod, attr) is getattr(ops_mod, name), (mod.__name__, attr)

    @pytest.mark.parametrize("task", sorted(REACHED))
    def test_both_models_reach_the_sites(self, task, tiny_dataset, monkeypatch):
        """Each model's step calls through the sites it is listed with,
        and every site outside ``ops`` is reached by a model."""
        from repro.autograd.functional import cross_entropy
        from repro.autograd.ops import gather_rows
        from repro.autograd.tensor import Tensor
        from repro.utils.rng import derive_rng

        reached = set()

        def recording(key, fn):
            def run(*args, **kwargs):
                reached.add(key)
                return fn(*args, **kwargs)

            return run

        for mod, attr, _ in _sites():
            monkeypatch.setattr(mod, attr, recording((mod.__name__, attr), getattr(mod, attr)))
        ds = tiny_dataset
        sampler, model = make_task(task, ds.layer_dims(3), seed=0)
        batch = sampler.sample(ds.graph, ds.train_idx[:32], rng=derive_rng(0, "sites"))
        x = gather_rows(Tensor(ds.features), batch.input_ids)
        cross_entropy(model(batch.blocks, x), ds.labels[batch.seeds]).backward()
        assert reached == self.REACHED[task]
        outside_ops = {(m.__name__, a) for m, a, _ in _sites() if m.__name__ != "repro.autograd.ops"}
        assert outside_ops == set().union(*self.REACHED.values())

    @pytest.mark.parametrize("task", ["neighbor-sage", "shadow-gcn"])
    def test_sites_land_in_their_categories(self, task, tiny_dataset, monkeypatch):
        import time

        import repro.autograd.ops as ops_mod

        def slowed(fn):
            def run(*args, **kwargs):
                time.sleep(0.005)
                return fn(*args, **kwargs)

            return run

        for name in ("linear", "sparse_product", "concat_mean"):
            monkeypatch.setattr(ops_mod, name, slowed(getattr(ops_mod, name)))
        sampler, model = make_task(task, tiny_dataset.layer_dims(3), seed=0)
        prof = profile_training_step(tiny_dataset, sampler, model, batch_size=32, steps=1)
        # three layers: three fused nodes, three aggregation nodes
        assert prof.seconds["dense"] >= 0.015
        assert prof.seconds["gather"] >= 0.015

    def test_fused_sites_are_restored(self, tiny_dataset):
        def sites():
            return [getattr(mod, attr) for mod, attr, _ in _sites()]

        before = sites()
        for task in ("neighbor-sage", "shadow-gcn"):
            sampler, model = make_task(task, tiny_dataset.layer_dims(2), seed=0)
            profile_training_step(tiny_dataset, sampler, model, batch_size=32, steps=1)
            assert sites() == before
