"""Cost-model behaviour: the trade-offs of paper Sec. V-A must emerge."""

import math
from dataclasses import fields

import numpy as np
import pytest

from repro.experiments.setups import ExperimentSetup, build_runtime
from repro.platform.costmodel import CostModel, amdahl_speedup
from repro.platform.library import DGL, PYG
from repro.platform.spec import ICE_LAKE_8380H


class TestAmdahl:
    def test_one_core_is_unity(self):
        assert amdahl_speedup(1, 0.9) == pytest.approx(1.0)

    def test_monotone(self):
        vals = [amdahl_speedup(c, 0.9) for c in (1, 2, 4, 8, 16)]
        assert vals == sorted(vals)

    def test_bounded_by_serial_fraction(self):
        assert amdahl_speedup(10_000, 0.9) < 10.0

    def test_fully_serial_never_speeds_up(self):
        assert amdahl_speedup(64, 0.0) == pytest.approx(1.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            amdahl_speedup(0, 0.5)
        with pytest.raises(ValueError):
            amdahl_speedup(4, 1.0)


class TestEpochTime:
    def test_breakdown_positive(self, dgl_cost_model):
        bd = dgl_cost_model.epoch_time(4, 4, 20)
        assert bd.total > 0
        assert bd.t_sample > 0
        assert bd.t_compute > 0
        assert bd.t_memory > 0
        assert bd.t_train == pytest.approx(bd.t_compute + bd.t_memory)

    def test_deterministic(self, dgl_cost_model):
        a = dgl_cost_model.epoch_time(4, 4, 20)
        b = dgl_cost_model.epoch_time(4, 4, 20)
        assert a.total == b.total

    def test_oversubscription_rejected(self, dgl_cost_model):
        with pytest.raises(ValueError):
            dgl_cost_model.epoch_time(8, 10, 10)  # 160 > 112

    def test_sync_zero_for_single_process(self, dgl_cost_model):
        assert dgl_cost_model.epoch_time(1, 4, 20).t_sync == 0.0

    def test_sync_grows_with_processes(self, dgl_cost_model):
        """Paper Sec. V-A1: more processes, more synchronisation overhead."""
        s2 = dgl_cost_model.epoch_time(2, 4, 8).t_sync
        s8 = dgl_cost_model.epoch_time(8, 4, 8).t_sync
        assert s8 > s2 > 0

    def test_iters_match_paper_formula(self, dgl_cost_model, tiny_dataset):
        expected = int(np.ceil(tiny_dataset.spec.paper_train_nodes / 1024))
        assert dgl_cost_model.iters_per_epoch() == expected


class TestPaperTradeoffs:
    """The qualitative claims of Sec. V-A, checked on the model."""

    def test_more_sampling_cores_saturate(self, dgl_cost_model):
        """Beyond the sampler's parallel fraction, extra cores don't help."""
        t1 = dgl_cost_model.epoch_time(2, 1, 40).t_sample
        t8 = dgl_cost_model.epoch_time(2, 8, 40).t_sample
        t40 = dgl_cost_model.epoch_time(2, 40, 8).t_sample
        assert t8 < t1
        # diminishing returns: 8->40 gains far less than 1->8
        assert (t8 - t40) < 0.3 * (t1 - t8)

    def test_epoch_workload_grows_with_processes(self, dgl_cost_model):
        """Fig. 6: smaller per-process batches share fewer neighbours."""
        edges = [dgl_cost_model.epoch_time(n, 2, 4).epoch_edges for n in (1, 2, 4, 8)]
        assert edges == sorted(edges)
        assert edges[-1] > edges[0]

    def test_bandwidth_grows_then_flattens(self, dgl_cost_model):
        """Fig. 6: bandwidth utilisation rises with n and saturates."""
        bw = [dgl_cost_model.epoch_time(n, 2, 12).bandwidth_used_gbs for n in (1, 2, 4, 8)]
        assert bw[1] >= bw[0]
        assert bw[-1] <= ICE_LAKE_8380H.peak_bw_gbs

    def test_single_process_cannot_use_whole_machine(self, dgl_cost_model):
        """Fig. 1: 1 process on 112 cores is far from 8x1-socket procs."""
        one = dgl_cost_model.epoch_time(1, 4, 108).total
        eight = dgl_cost_model.epoch_time(8, 4, 10).total
        assert eight < one

    def test_launching_max_processes_not_always_best(self, tiny_dataset, neighbor_workload):
        """Sec. V-A1: too many processes can lose to a moderate count
        (extra workload + sync).  Check on the *shadow* profile where
        per-process parallelism is poor, both extremes exist in-space."""
        cm = CostModel(
            ICE_LAKE_8380H,
            DGL,
            neighbor_workload,
            sampler_name="neighbor",
            model_name="sage",
            dims=tiny_dataset.layer_dims(3),
            train_nodes=tiny_dataset.spec.paper_train_nodes,
        )
        # sweep the full space: the argmin must not be the max-core split of
        # a single process (i.e. multi-processing wins), and the optimum
        # must use >1 process but not necessarily 8
        from repro.tuning.space import ConfigSpace

        space = ConfigSpace(112)
        best = min(space, key=lambda cfg: cm.epoch_time(*cfg).total)
        assert best[0] > 1

    def test_pyg_slower_than_dgl(self, tiny_dataset, neighbor_workload):
        args = dict(
            workload=neighbor_workload,
            sampler_name="neighbor",
            model_name="sage",
            dims=tiny_dataset.layer_dims(3),
            train_nodes=tiny_dataset.spec.paper_train_nodes,
        )
        dgl_t = CostModel(ICE_LAKE_8380H, DGL, **args).epoch_time(4, 4, 20).total
        pyg_t = CostModel(ICE_LAKE_8380H, PYG, **args).epoch_time(4, 4, 20).total
        assert pyg_t > 2 * dgl_t


class TestValidation:
    def test_rejects_bad_train_nodes(self, tiny_dataset, neighbor_workload):
        with pytest.raises(ValueError):
            CostModel(
                ICE_LAKE_8380H,
                DGL,
                neighbor_workload,
                sampler_name="neighbor",
                model_name="sage",
                dims=tiny_dataset.layer_dims(3),
                train_nodes=0,
            )


# math.fsum of each EpochBreakdown field over every config of the space,
# pinned for neighbor-sage / ogbn-products / dgl at seed 0: a change to the
# model's bookkeeping (bindings, socket lookups) must not move one bit.
# The workload inputs are measured with the real sampler, so the pins
# follow its RNG stream too: re-pinned once, when per-winner (Floyd)
# sampling replaced the per-candidate random keys.
COST_GOLDENS = {
    "icelake": {
        "total": "0x1.5006eb2817928p+12",
        "iters": "0x1.bcce000000000p+15",
        "t_sample": "0x1.a130f44772030p+2",
        "t_compute": "0x1.c4b18ec67f20cp+3",
        "t_memory": "0x1.798c5401ab5ffp+0",
        "t_train": "0x1.f3e31946b48ccp+3",
        "t_sync": "0x1.0600f3642b105p-3",
        "t_fixed": "0x1.07b851eb851ebp+6",
        "bandwidth_used_gbs": "0x1.287015f060838p+12",
        "epoch_edges": "0x1.f101cf5a20aeep+32",
    },
    "sapphire": {
        "total": "0x1.6ee52ae33ebc1p+11",
        "iters": "0x1.ee90000000000p+14",
        "t_sample": "0x1.2a7d6449b916fp+2",
        "t_compute": "0x1.d4815e076600ap+2",
        "t_memory": "0x1.13d53c0690d7dp-1",
        "t_train": "0x1.f6fc0588381bap+2",
        "t_sync": "0x1.1d40a68376c91p-4",
        "t_fixed": "0x1.2147ae147ae14p+5",
        "bandwidth_used_gbs": "0x1.4b2783882e050p+11",
        "epoch_edges": "0x1.13b66cc73af81p+32",
    },
}


class TestGolden:
    @pytest.mark.parametrize("platform", sorted(COST_GOLDENS))
    def test_every_config_matches_pinned_breakdown(self, platform):
        rt, space = build_runtime(
            ExperimentSetup("neighbor-sage", "ogbn-products", platform, "dgl"), seed=0
        )
        cm = rt.cost_model
        bds = [cm._epoch_time_uncached(*cfg) for cfg in space.configs]
        got = {
            f.name: float.hex(math.fsum(getattr(bd, f.name) for bd in bds))
            for f in fields(bds[0])
        }
        assert got == COST_GOLDENS[platform]

    def test_binding_core_set_built_once(self, dgl_cost_model):
        binding = dgl_cost_model.binder.bind(4, 4, 20)[1]
        assert binding.all_cores is binding.all_cores
        assert binding.all_cores.cores == (
            binding.sampling_cores.cores + binding.training_cores.cores
        )
