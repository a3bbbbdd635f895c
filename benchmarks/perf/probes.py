"""Per-layer probes: time calls into each layer's public functions.

Layers are measured from outside — nothing under ``src/`` is
instrumented.  Each probe replays inputs the workload generated and
returns ``{metric name: value}`` for the names declared in ``spec.py``.
Bandwidth and FLOP figures are *computed* from array sizes divided by
measured time, not read from hardware counters.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

import adapters as A
from stats import median

pc = time.perf_counter


def median_s(fn, reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        start = pc()
        fn()
        times.append(pc() - start)
    return median(times)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------
def sample_batches(graph, sampler, batches, seed: int):
    """Sample every seed batch; returns (per-batch seconds, mini-batches)."""
    times, sampled = [], []
    for i, seeds in enumerate(batches):
        rng = np.random.default_rng([seed, i])
        start = pc()
        sampled.append(sampler.sample(graph, seeds, rng=rng))
        times.append(pc() - start)
    return times, sampled


def sampler_metrics(prefix: str, times, sampled) -> dict:
    edges = sum(mb.total_edges for mb in sampled)
    return {
        f"sampling.{prefix}_ms": median(times) * 1e3,
        f"sampling.{prefix}_edges_per_s": edges / sum(times),
    }


def merged_sampling_seconds(graph, sampler, request_batches, seed: int) -> list:
    """Wall of ``sample_merged`` per micro-batch of single-node requests."""
    times = []
    for nodes in request_batches:
        seed_batches = [np.asarray([n], dtype=np.int64) for n in nodes]
        rngs = [np.random.default_rng([seed, int(n)]) for n in nodes]
        start = pc()
        sampler.sample_merged(graph, seed_batches, rngs)
        times.append(pc() - start)
    return times


def serving_sampler(graph, sampler, request_batches, seed: int) -> dict:
    times = merged_sampling_seconds(graph, sampler, request_batches, seed)
    fanouts = getattr(sampler, "fanouts", None)
    probe = median_s(
        lambda: A.estimate_request_costs(graph, request_batches[0], fanouts), 50
    )
    return {
        "sampling.merged_ms": median(times) * 1e3,
        "sampling.request_cost_probe_us": probe * 1e6,
    }


# ----------------------------------------------------------------------
# autograd / gnn
# ----------------------------------------------------------------------
def training_compute(ds, sampler, model, sampled, seed: int, batch: int) -> dict:
    """Forward/backward/optimizer and op-category timings on replayed batches."""
    out = {}
    prof = A.profile_training_step(ds, sampler, model, batch_size=batch, steps=3, seed=seed)
    out["autograd.gather_ms"] = prof.seconds["gather"] / prof.steps * 1e3
    out["autograd.dense_ms"] = prof.seconds["dense"] / prof.steps * 1e3
    out["autograd.gather_frac"] = prof.fraction("gather")
    out["autograd.dense_frac"] = prof.fraction("dense")

    feats = A.Tensor(ds.features)
    fwd, bwd = [], []
    for mb in sampled:
        start = pc()
        logits = model(mb.blocks, A.gather_rows(feats, mb.input_ids))
        loss = A.cross_entropy(logits, ds.labels[mb.seeds])
        mid = pc()
        model.zero_grad()
        loss.backward()
        bwd.append(pc() - mid)
        fwd.append(mid - start)
    out["gnn.forward_ms"] = median(fwd) * 1e3
    out["gnn.backward_ms"] = median(bwd) * 1e3

    optimizer = A.Adam(model.parameters(), lr=3e-3)  # grads are set by the loop above
    out["autograd.optim_step_ms"] = median_s(optimizer.step, 9) * 1e3

    # kernels at the first layer's shapes (the widest, so the dearest)
    block = sampled[0].blocks[0]
    rows, in_dim, hidden = block.num_src, ds.features.shape[1], model.dims[1]
    rng = np.random.default_rng(seed)
    a = A.Tensor(rng.standard_normal((rows, in_dim)).astype(ds.features.dtype))
    b = A.Tensor(rng.standard_normal((in_dim, hidden)).astype(ds.features.dtype))
    out["autograd.matmul_gflops"] = 2.0 * rows * in_dim * hidden / median_s(lambda: A.matmul(a, b), 9) / 1e9
    row_bytes = in_dim * ds.features.dtype.itemsize
    out["autograd.gather_gbytes_per_s"] = (
        2.0 * rows * row_bytes / median_s(lambda: A.gather_rows(feats, block.src_ids), 9) / 1e9
    )
    h = A.Tensor(rng.standard_normal((rows, hidden)).astype(ds.features.dtype))
    agg = median_s(lambda: A.aggregate_mean(h, block.edge_src, block.edge_dst, block.num_dst), 9)
    out["gnn.aggregate_mean_ms"] = agg * 1e3
    # one row read and one row accumulated per edge
    out["gnn.aggregate_gbytes_per_s"] = (
        2.0 * block.num_edges * hidden * ds.features.dtype.itemsize / agg / 1e9
    )
    return out


# ----------------------------------------------------------------------
# distributed
# ----------------------------------------------------------------------
def _collective_rank(world, rank: int, size: int, rounds: int, results) -> None:
    comm = A.ProcessCommunicator(world, rank)
    buf = [np.ones(size, dtype=np.float32)]
    comm.barrier()
    reduce_s = median_s(lambda: comm.allreduce_mean(buf), rounds)
    barrier_s = median_s(comm.barrier, rounds)
    results.put((reduce_s, barrier_s))


def collectives(param_count: int, *, ranks: int = 2, rounds: int = 200) -> dict:
    """All-reduce of a parameter-sized buffer and a bare barrier, forked ranks."""
    # fork, as the process backend itself does: this process holds no
    # threads here (BLAS is pinned to one), and spawn would time imports
    ctx = mp.get_context("fork")
    world = A.ProcessWorld(ranks, param_count, ctx=ctx, timeout=60.0)
    results = ctx.Queue()
    procs = [
        ctx.Process(target=_collective_rank, args=(world, r, param_count, rounds, results))
        for r in range(ranks)
    ]
    try:
        for p in procs:
            p.start()
        got = [results.get(timeout=90.0) for _ in procs]
    finally:
        for p in procs:
            p.join(timeout=30.0)
            if p.is_alive():
                p.kill()
                p.join()
        world.unlink()
    return {
        "distributed.allreduce_ms": max(r for r, _ in got) * 1e3,
        "distributed.barrier_us": max(b for _, b in got) * 1e6,
    }


# ----------------------------------------------------------------------
# shm
# ----------------------------------------------------------------------
def param_publish(model) -> dict:
    state = {"model": model.state_dict()}
    store = A.ParamStore.create(state)
    try:
        return {"shm.param_publish_ms": median_s(lambda: store.publish(state), 25) * 1e3}
    finally:
        store.unlink()


def arena_roundtrip(out_dim: int, batch: int = 8) -> dict:
    rows = np.zeros((batch, out_dim), dtype=np.float32)
    arena = A.BatchArena.create(num_slots=2, slot_bytes=1 << 20)
    try:
        return {
            "shm.arena_roundtrip_us": median_s(
                lambda: arena.read(0, arena.write(0, [rows])), 200
            )
            * 1e6
        }
    finally:
        arena.unlink()


def shm_store_build(ds) -> dict:
    times = []
    for _ in range(3):
        start = pc()
        store = A.SharedGraphStore.from_dataset(ds)
        times.append(pc() - start)
        store.unlink()
    return {"graph.shm_store_build_ms": median(times) * 1e3}


# ----------------------------------------------------------------------
# graph deltas
# ----------------------------------------------------------------------
def build_fragment(ds, src, dst):
    return A.DeltaFragment.from_delta(
        A.GraphDelta(src=src, dst=dst),
        num_nodes=ds.graph.num_nodes,
        feature_dim=int(ds.features.shape[1]),
        feature_dtype=ds.features.dtype,
        label_dtype=ds.labels.dtype,
    )


def graph_deltas(ds, edge_batches, sampler, request_batches, seed: int) -> dict:
    build, frags = [], []
    for src, dst in edge_batches:
        start = pc()
        frags.append(build_fragment(ds, src, dst))
        build.append(pc() - start)
    view = A.LayeredCSR(ds.graph, frags)
    hops = int(sampler.num_layers)
    reach = [median_s(lambda f=f: A.reverse_reachable(view, f.rows, hops), 1) for f in frags]
    log = A.DeltaLog()
    try:
        publish = []
        for frag in frags[:16]:
            start = pc()
            log.append(frag.to_arrays())
            publish.append(pc() - start)
    finally:
        log.unlink()
    base = sum(merged_sampling_seconds(ds.graph, sampler, request_batches, seed))
    layered = sum(merged_sampling_seconds(view, sampler, request_batches, seed))
    return {
        "graph.fragment_build_ms": median(build) * 1e3,
        "graph.layered_view_ms": median_s(lambda: A.LayeredCSR(ds.graph, frags), 5) * 1e3,
        "graph.reverse_reachable_ms": median(reach) * 1e3,
        "graph.layered_sample_slowdown": layered / base,
        "shm.delta_log_publish_ms": median(publish) * 1e3,
    }


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
def prefetch_overhead(graph, sampler, batches, seed: int) -> dict:
    """``OrderedPrefetcher`` with a consumer that does nothing vs a plain loop."""

    def jobs():
        return [
            (lambda s=s, i=i: sampler.sample(graph, s, rng=np.random.default_rng([seed, i])))
            for i, s in enumerate(batches)
        ]

    def plain():
        for job in jobs():
            job()

    def prefetched():
        with A.OrderedPrefetcher(jobs(), num_workers=1, queue_depth=2) as it:
            for _ in it:
                pass

    return {"pipeline.prefetch_overhead_frac": median_s(prefetched, 3) / median_s(plain, 3) - 1.0}


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def cache_ops(keys, out_dim: int, capacity: int = 4096) -> dict:
    cache = A.EmbeddingCache(capacity)
    row = np.zeros(out_dim, dtype=np.float32)
    keys = [int(k) for k in keys]
    start = pc()
    for key in keys:
        cache.put(key, row)
    mid = pc()
    for key in keys:
        cache.get(key)
    end = pc()
    return {
        "serve.cache_put_us": (mid - start) / len(keys) * 1e6,
        "serve.cache_get_us": (end - mid) / len(keys) * 1e6,
    }


def infer_dispatch(make_engine, nodes) -> dict:
    """What the pool adds to one uncached single-node prediction."""
    medians = {}
    for mode in ("pool", "inline"):
        engine = make_engine(mode)
        try:
            engine.warm_up()
            engine.predict(nodes[:1])
            times = []
            for node in nodes:
                start = pc()
                engine.predict([node])
                times.append(pc() - start)
            medians[mode] = median(times)
        finally:
            engine.close()
    return {"exec.infer_dispatch_ms": (medians["pool"] - medians["inline"]) * 1e3}


def trace_overhead(make_engine, batches, *, blocks: int = 8, block_len: int = 6) -> dict:
    """Traced over untraced wall on identical batches, block by block.

    Both engines serve the same block back to back and the median of the
    per-block ratios is reported, so drift in the host hits both sides.
    """
    engines = {False: make_engine(False), True: make_engine(True)}
    ratios = []
    try:
        for engine in engines.values():
            engine.warm_up()
            engine.predict(batches[0])
        for b in range(blocks):
            chunk = batches[1 + b * block_len : 1 + (b + 1) * block_len]
            wall = {}
            # alternate which side goes first
            for traced in ((False, True) if b % 2 == 0 else (True, False)):
                start = pc()
                for batch in chunk:
                    engines[traced].predict(batch)
                wall[traced] = pc() - start
            ratios.append(wall[True] / wall[False])
    finally:
        for engine in engines.values():
            engine.close()
    return {"obs.trace_overhead_frac": median(ratios) - 1.0}


# ----------------------------------------------------------------------
# bayesopt
# ----------------------------------------------------------------------
def surrogate(space, budget: int, seed: int) -> dict:
    """GP fit and one acquisition scan at the search budget actually used."""
    feats = space.features()
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(feats), size=min(budget, len(feats)), replace=False)
    y = rng.random(len(idx))
    fit = median_s(lambda: A.GaussianProcessRegressor().fit(feats[idx], y), 5)
    bo = A.BayesianOptimizer(feats, n_initial=3, rng=np.random.default_rng(seed))
    for i, value in zip(idx[:-1], y):
        bo.tell(int(i), float(value))
    return {
        "bayesopt.gp_fit_ms": fit * 1e3,
        "bayesopt.ask_ms": median_s(bo.ask, 5) * 1e3,
    }
