"""Micro-benchmarks of the substrate hot paths (real wall-clock timing).

These are genuine pytest-benchmark timings of the kernels the library's
performance rests on: neighbour sampling, ShaDow subgraph induction,
segment aggregation, one real training step, a GP fit, and one full
cost-model evaluation (which the tuner calls hundreds of times).
"""

import numpy as np

from repro.autograd.ops import gather_rows
from repro.autograd.tensor import Tensor
from repro.bayesopt.gp import GaussianProcessRegressor
from repro.experiments.setups import _dataset
from repro.gnn.aggregate import aggregate_mean
from repro.gnn.models import make_task
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.shadow import ShadowSampler
from repro.utils.rng import derive_rng


def bench_neighbor_sampling(benchmark):
    ds = _dataset("ogbn-products", 0)
    sampler = NeighborSampler([15, 10, 5])
    seeds = ds.train_idx[:1024]
    rng = derive_rng(0)
    mb = benchmark(lambda: sampler.sample(ds.graph, seeds, rng=rng))
    assert mb.total_edges > 0


def bench_shadow_sampling(benchmark):
    ds = _dataset("ogbn-products", 0)
    sampler = ShadowSampler(fanouts=[10, 5], num_layers=3)
    seeds = ds.train_idx[:256]
    rng = derive_rng(0)
    mb = benchmark(lambda: sampler.sample(ds.graph, seeds, rng=rng))
    assert mb.total_edges > 0


def bench_batched_frontier_sampling(benchmark):
    """The PR 6 serving-hot-path kernel: one fused multi-seed pass
    drawing a whole micro-batch's frontiers (32 single-node requests),
    asserted bit-identical to the looped sample-then-merge reference."""
    from repro.sampling.base import Sampler
    from repro.sampling.batch import merge_frontiers

    ds = _dataset("ogbn-products", 0)
    sampler = NeighborSampler([15, 10, 5])
    nodes = ds.train_idx[:32]
    batches = [nodes[i : i + 1] for i in range(len(nodes))]

    def rngs():
        return [derive_rng(0, "serve", int(n)) for n in nodes]

    looped = Sampler.sample_merged(sampler, ds.graph, batches, rngs())
    fused = benchmark(lambda: sampler.sample_merged(ds.graph, batches, rngs()))
    assert len(fused.blocks) == len(looped.blocks)
    for a, b in zip(looped.blocks, fused.blocks):
        np.testing.assert_array_equal(a.src_ids, b.src_ids)
        np.testing.assert_array_equal(a.edge_src, b.edge_src)
        np.testing.assert_array_equal(a.edge_dst, b.edge_dst)
        np.testing.assert_array_equal(a.src_splits, b.src_splits)
        np.testing.assert_array_equal(a.dst_splits, b.dst_splits)


def bench_segment_aggregation(benchmark):
    rng = np.random.default_rng(0)
    h = Tensor(rng.standard_normal((20_000, 128)).astype(np.float32))
    src = rng.integers(0, 20_000, size=200_000)
    dst = rng.integers(0, 5_000, size=200_000)
    out = benchmark(lambda: aggregate_mean(h, src, dst, 5_000))
    assert out.shape == (5_000, 128)


def bench_training_step(benchmark):
    from repro.autograd.functional import cross_entropy
    from repro.autograd.optim import Adam

    ds = _dataset("ogbn-products", 0)
    sampler, model = make_task("neighbor-sage", ds.layer_dims(3), seed=0)
    opt = Adam(model.parameters(), lr=1e-3)
    feats = Tensor(ds.features)
    batch = sampler.sample(ds.graph, ds.train_idx[:256], rng=derive_rng(0))

    def step():
        x = gather_rows(feats, batch.input_ids)
        loss = cross_entropy(model(batch.blocks, x), ds.labels[batch.seeds])
        model.zero_grad()
        loss.backward()
        opt.step()
        return loss.item()

    assert benchmark(step) > 0


def bench_gp_fit_predict(benchmark):
    rng = np.random.default_rng(0)
    X = rng.random((30, 2))
    y = np.sin(5 * X[:, 0]) + X[:, 1]
    Xq = rng.random((300, 2))

    def fit_predict():
        gp = GaussianProcessRegressor()
        gp.fit(X, y)
        return gp.predict(Xq)

    mean, std = benchmark(fit_predict)
    assert mean.shape == (300,)


def bench_cost_model_eval(benchmark):
    from repro.experiments.setups import ExperimentSetup, build_runtime

    rt, space = build_runtime(ExperimentSetup("neighbor-sage", "ogbn-products", "icelake", "dgl"))
    cm = rt.cost_model
    cfgs = space.configs

    def sweep():
        # bypass the epoch_time memo: every round re-evaluates the model,
        # the quantity the ledger's platform.costmodel_eval_us reports
        return sum(cm._epoch_time_uncached(*c).total for c in cfgs[:50])

    assert benchmark(sweep) > 0


def bench_profiled_step(benchmark, save_result):
    """Where a real training step spends its time (Fig. 2's evidence on
    actual execution): sampling, irregular gathers/SpMM and dense GEMMs
    each take a measurable share of the step."""
    from repro.platform.profiling import profile_training_step

    ds = _dataset("ogbn-products", 0)
    sampler, model = make_task("neighbor-sage", ds.layer_dims(3), seed=0)

    def run():
        return profile_training_step(ds, sampler, model, batch_size=512, steps=3)

    prof = benchmark.pedantic(run, rounds=1, iterations=1)
    save_result("profile_real_step", prof.summary())
    for cat in ("gather", "dense", "sampling"):
        assert prof.seconds[cat] > 0.0, cat
