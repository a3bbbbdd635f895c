"""The eight workloads: inputs, cold set-up, timed loop, correctness, layers.

Each workload object is driven by ``worker.py`` in a fresh subprocess:

``prepare``   generate the inputs from the seed (not part of set-up time)
``setup``     one cold set-up: inputs ready -> ready for the first timed op
``measure``   the timed loop, tracing off
``check``     outputs are correct (counted as operations that can fail)
``layers``    the traced pass: a shortened run plus the per-layer probes

All sizes are the synthetic ``ogbn-products`` stand-in, 3-layer models,
global batch 256.  Nothing here uses more than two ranks or workers.  The
graph and the served model are drawn from ``inputs.WORLD_SEED``; ``--seed``
draws the traffic (see ``inputs.py``).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

import adapters as A
import inputs
import probes
from drivers import run_closed_loop, run_open_loop
from inputs import WORLD_SEED
from spec import SLO_MS, workload as workload_spec
from stats import median, percentile, span_self_seconds

pc = time.perf_counter

DATASET = "ogbn-products"
BATCH = 256
REQ_BATCH = 8
OPEN_RATE = 200.0
ZIPF_ALPHA = 1.1
DELTA_EVERY = 8
#: spans whose per-request self time the ledger reports
SPAN_NAMES = ("sample", "merge", "forward", "cache", "plan", "barrier", "publish", "delta_sync")


@dataclass
class Measured:
    """What one timed loop produced."""

    samples_ms: list
    items: int
    wall_s: float
    attempted: int
    failed: int
    #: per-layer metrics the loop itself can read off (driver-side timings,
    #: counters at a fixed checkpoint); reported by the traced pass
    layer: dict = field(default_factory=dict)
    #: anything else worth keeping in the ledger
    detail: dict = field(default_factory=dict)


class Workload:
    def __init__(self, name: str):
        self.spec = workload_spec(name)
        self.name = name

    def prepare(self, seed: int, seconds: float) -> None:
        raise NotImplementedError

    def setup(self, tracing: bool = False):
        raise NotImplementedError

    def teardown(self, ctx) -> None:
        pass

    def measure(self, ctx, seconds: float, min_ops: int) -> Measured:
        raise NotImplementedError

    def check(self, ctx) -> tuple[int, list]:
        """(checks attempted, messages of the ones that failed)."""
        return 0, []

    def layers(self, ctx, seconds: float) -> dict:
        raise NotImplementedError


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
class Train(Workload):
    def __init__(self, name, task, *, ranks=1, backend="inline", scale=None, prefetch=False):
        super().__init__(name)
        self.task, self.ranks, self.backend = task, ranks, backend
        self.scale, self.prefetch = scale, prefetch

    def prepare(self, seed, seconds):
        self.seed = seed
        start = pc()
        self.ds = A.load_dataset(DATASET, seed=WORLD_SEED, scale_override=self.scale)
        self.dataset_build_s = pc() - start

    def _engine(self, *, backend, prefetch):
        sampler, model = A.make_task(self.task, self.ds.layer_dims(3), seed=self.seed)
        overlap = dict(prefetch=True, sampler_workers=1, queue_depth=2) if prefetch else {}
        return A.MultiProcessEngine(
            self.ds, sampler, model,
            num_processes=self.ranks, global_batch_size=BATCH, backend=backend,
            seed=self.seed, **overlap,
        )

    def setup(self, tracing=False):
        engine = self._engine(backend=self.backend, prefetch=self.prefetch)
        try:
            engine.train_epoch()  # epoch 0 pays the launch and the first touch
        except BaseException:
            engine.shutdown()
            raise
        return engine

    def teardown(self, engine):
        engine.shutdown()

    def measure(self, engine, seconds, min_ops):
        samples, items, failed = [], 0, 0
        start = pc()
        while len(samples) < min_ops or pc() - start < seconds:
            t0 = pc()
            try:
                stats = engine.train_epoch()
            except Exception as exc:  # a broken backend fails every epoch left
                failed += max(1, min_ops - len(samples))
                return Measured(samples, items, pc() - start, len(samples) + failed, failed,
                                detail={"error": repr(exc)})
            samples.append((pc() - t0) * 1e3)
            items += stats.num_global_steps * BATCH
            failed += not math.isfinite(stats.mean_loss)
        return Measured(samples, items, pc() - start, len(samples), failed)

    def _inline_sync(self, epochs: int):
        """Epoch stats of a fresh inline, synchronous engine at the same rank count."""
        engine = self._engine(backend="inline", prefetch=False)
        try:
            return [engine.train_epoch() for _ in range(epochs)]
        finally:
            engine.shutdown()

    def check(self, engine):
        losses = engine.history.losses
        bad = []
        if not all(math.isfinite(x) for x in losses):
            bad.append("non-finite loss")
        if not losses[-1] < losses[0]:
            bad.append(f"loss did not fall: {losses[0]:.4f} -> {losses[-1]:.4f}")
        attempted = 2
        if self.backend != "inline" or self.prefetch:
            # the README contract: any backend, prefetch on or off, follows
            # the inline synchronous trajectory at the same rank count
            attempted += 1
            replay = [s.mean_loss for s in self._inline_sync(2)]
            if not np.allclose(losses[:2], replay, rtol=0.0, atol=1e-6):
                bad.append(f"trajectory {losses[:2]} != inline replay {replay}")
        return attempted, bad

    def layers(self, engine, seconds):
        start = pc()
        epochs = []
        while len(epochs) < 3 or pc() - start < seconds / 2:
            epochs.append(engine.train_epoch())
        first = engine.history.epochs[0]
        epoch_s = median([e.epoch_time for e in epochs])
        wait = median([e.sample_wait for e in epochs])
        compute = median([e.compute_time for e in epochs])
        out = {
            "graph.dataset_build_s": self.dataset_build_s,
            "core.epoch_s": epoch_s,
            "exec.sample_wait_s": wait,
            "exec.compute_s": compute,
            "exec.sample_share": wait / (wait + compute),
            "exec.launch_ms": first.launch_time * 1e3,
            "exec.steady_launch_ms": median([e.launch_time for e in epochs]) * 1e3,
            "exec.pool_launches": epochs[-1].pool_launches,
            # epoch 1 is a pure function of the seed, later ones of how
            # many epochs the clock allowed
            "sampling.sampled_edges": epochs[0].sampled_edges,
        }
        if self.backend == "process":
            inline = self._inline_sync(3)[1:]
            out["exec.scaling_efficiency"] = (
                median([e.epoch_time for e in inline]) / self.ranks / epoch_s
            )
            model = engine.model
            out.update(probes.collectives(sum(p.data.size for p in model.parameters())))
            out.update(probes.param_publish(model))
            out.update(probes.shm_store_build(self.ds))
        if self.prefetch:
            sync_wait = median([e.sample_wait for e in self._inline_sync(3)[1:]])
            out["pipeline.residual_wait_s"] = wait
            out["pipeline.overlap_frac"] = 1.0 - wait / sync_wait

        sampler, model = A.make_task(self.task, self.ds.layer_dims(3), seed=self.seed)
        batches = inputs.seed_batches(self.seed, self.ds.train_idx, BATCH, 6)
        times, sampled = probes.sample_batches(self.ds.graph, sampler, batches, self.seed)
        kind = "shadow" if isinstance(sampler, A.ShadowSampler) else "neighbor"
        out.update(probes.sampler_metrics(kind, times, sampled))
        out.update(probes.training_compute(self.ds, sampler, model, sampled[:4], self.seed, BATCH))
        if self.prefetch:
            out.update(probes.prefetch_overhead(self.ds.graph, sampler, batches, self.seed))
        return out


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def cache_counters(engine) -> dict:
    stats = engine.cache.stats
    return {
        "serve.cache_hit_rate": stats.hit_rate,
        "serve.cache_invalidated": stats.invalidated,
        "serve.cache_evictions": stats.evictions,
    }


class Serve(Workload):
    def __init__(self, name, *, mode, workers=1, cache_entries, alpha, loop, deltas=False):
        super().__init__(name)
        self.mode, self.workers, self.cache_entries = mode, workers, cache_entries
        self.alpha, self.loop, self.deltas = alpha, loop, deltas

    def prepare(self, seed, seconds):
        self.seed = seed
        start = pc()
        self.ds = ds = A.load_dataset(DATASET, seed=WORLD_SEED)
        self.dataset_build_s = pc() - start
        sampler, model = A.make_task("neighbor-sage", ds.layer_dims(3), seed=WORLD_SEED)
        trainer = A.MultiProcessEngine(
            ds, sampler, model, num_processes=1, global_batch_size=BATCH, seed=WORLD_SEED
        )
        try:
            trainer.train(1)
            self.snapshot = A.ModelSnapshot.from_engine(trainer)
        finally:
            trainer.shutdown()
        n = ds.graph.num_nodes
        self.probe = inputs.probe_nodes(n)
        if self.loop == "open":
            horizon = max(seconds, self.spec.min_ops / OPEN_RATE)
            self.due = inputs.poisson_due_times(seed, OPEN_RATE, horizon)
            self.nodes = inputs.zipf_nodes(seed, n, len(self.due), self.alpha)
            self.batches = self.nodes[: len(self.nodes) // REQ_BATCH * REQ_BATCH].reshape(-1, REQ_BATCH)
        else:
            # four times what this host drains in the time: a closed loop
            # must not run out of input because the program got faster
            count = max(self.spec.min_ops, int(200 * seconds)) + 1
            self.batches = inputs.zipf_nodes(seed, n, count * REQ_BATCH, self.alpha).reshape(-1, REQ_BATCH)
        self.edge_batches = (
            inputs.edge_deltas(seed, n, len(self.batches) // DELTA_EVERY + 1) if self.deltas else []
        )

    def _make_engine(self, *, mode=None, cache_entries=None, tracing=False):
        mode = self.mode if mode is None else mode
        return A.InferenceEngine(
            self.snapshot, self.ds,
            mode=mode, batch_mode="frontier", shard_policy="chunk",
            workers=self.workers if mode == "pool" else 1,
            cache_entries=self.cache_entries if cache_entries is None else cache_entries,
            tracing=tracing, trace_capacity=1 << 17,
        )

    def setup(self, tracing=False):
        engine = self._make_engine(tracing=tracing)
        try:
            start = pc()
            engine.warm_up()
            self.warm_up_s = pc() - start
            # four batches, not one: the first costs 3x a steady one (lazy
            # worker-side set-up), the second is still 1.5x
            for batch in self.probe[: 4 * REQ_BATCH].reshape(-1, REQ_BATCH):
                engine.predict(batch)
        except BaseException:
            engine.close()
            raise
        self.applied = []  # the (src, dst) deltas this engine has taken
        return engine

    def teardown(self, engine):
        engine.close()

    # -- timed loops ----------------------------------------------------
    def measure(self, engine, seconds, min_ops):
        if self.loop == "open":
            return self._measure_open(engine, seconds, min_ops)
        return self._measure_closed(engine, seconds, min_ops)

    def _measure_open(self, engine, seconds, min_ops):
        horizon = max(seconds, min_ops / OPEN_RATE)
        count = int(np.searchsorted(self.due, horizon))
        batcher = A.MicroBatcher(max_batch=REQ_BATCH, max_wait_ms=2.0)
        res = run_open_loop(
            engine.predict, batcher, A.Request, self.due[:count], self.nodes[:count]
        )
        layer = {
            **cache_counters(engine),
            "serve.p50_ms": median(res.latency_s) * 1e3,
            "serve.p95_ms": percentile(res.latency_s, 95) * 1e3,
            "serve.p99_ms": percentile(res.latency_s, 99) * 1e3,
            "serve.slo_miss_frac": res.slo_miss_frac(SLO_MS / 1e3),
            "serve.queue_wait_p50_ms": median(res.queue_wait_s) * 1e3,
            "serve.queue_wait_p99_ms": percentile(res.queue_wait_s, 99) * 1e3,
            "serve.service_p50_ms": median(res.service_s) * 1e3,
            "serve.service_p99_ms": percentile(res.service_s, 99) * 1e3,
            "serve.batch_size_mean": batcher.stats.mean_batch,
            "serve.full_flushes": batcher.stats.full_flushes,
            "serve.deadline_flushes": batcher.stats.deadline_flushes,
            "serve.utilisation": res.busy_s / res.wall_s,
            "serve.generator_lag_p99_ms": percentile(res.admit_lag_s, 99) * 1e3,
        }
        return Measured(
            [lat * 1e3 for lat in res.latency_s], res.completed, res.wall_s,
            res.sent, res.failed + res.refused, layer,
            {"batches": len(res.service_s), "error": res.last_error},
        )

    def _measure_closed(self, engine, seconds, min_ops):
        update_s = []
        checkpoint = {}

        def before_batch(k):
            if k == min_ops:
                # counters after a fixed prefix repeat exactly for a seed;
                # totals depend on how many batches the clock allowed
                checkpoint.update(cache_counters(engine))
            if self.deltas and k % DELTA_EVERY == 0:
                src, dst = self.edge_batches[k // DELTA_EVERY]
                start = pc()
                engine.apply_delta(A.GraphDelta(src=src, dst=dst))
                update_s.append(pc() - start)
                self.applied.append((src, dst))

        res = run_closed_loop(
            engine.predict, self.batches, seconds=seconds, min_batches=min_ops,
            before_batch=before_batch,
        )
        layer = {
            **(checkpoint or cache_counters(engine)),
            "serve.drain_rps": res.completed / res.wall_s,
            "serve.update_ms": median(update_s) * 1e3,
        }
        return Measured(
            [s * 1e3 for s in res.batch_s], res.completed, res.wall_s,
            res.completed + res.failed + len(update_s), res.failed, layer,
            {"batches": len(res.batch_s), "deltas": len(update_s), "error": res.last_error},
        )

    # -- correctness ----------------------------------------------------
    def check(self, engine):
        bad = []
        fragments = [probes.build_fragment(self.ds, s, d) for s, d in self.applied]
        cold = A.materialize_dataset(self.ds, fragments)
        want = A.predict_nodes(
            self.snapshot.build_model(), cold.graph, A.Tensor(cold.features),
            self.snapshot.build_sampler(), self.probe, seed=self.snapshot.seed,
        )
        got = engine.predict(self.probe)
        wrong = int(np.sum(np.any(got != want, axis=1))) if got.shape == want.shape else len(self.probe)
        bad += ["a probe prediction differs from a cold inline engine"] * wrong
        attempted = len(self.probe)
        if self.mode == "pool":
            attempted += 1
            if engine.pool.launches != 1:
                bad.append(f"pool.launches == {engine.pool.launches}, expected 1")
        return attempted, bad

    # -- traced pass ----------------------------------------------------
    def layers(self, engine, seconds):
        # the open loop runs its full time (its hit rate is still climbing
        # at half); the drains are in steady state from the first batch
        share = 1.0 if self.loop == "open" else 0.5
        m = self.measure(engine, seconds * share, int(self.spec.min_ops * share))
        out = dict(m.layer)
        out["graph.dataset_build_s"] = self.dataset_build_s
        batches = m.detail["batches"]

        phases = dict(zip(("sample", "merge", "forward", "cache"), engine.phases.snapshot()))
        total = sum(phases.values())
        for name, value in phases.items():
            out[f"serve.phase_{name}_frac"] = value / total
        out["gnn.infer_forward_ms"] = phases["forward"] / batches * 1e3

        ranks = engine.rank_stats
        out["exec.rank_imbalance"] = ranks.imbalance
        out["exec.rank_busy_frac"] = sum(ranks.busy_s) / (len(ranks.busy_s) * m.wall_s)
        if self.mode == "pool":
            out["exec.pool_launches"] = engine.pool.launches
            out["exec.launch_ms"] = self.warm_up_s * 1e3
            out["shm.arena_hit_rate"] = engine.transport.hit_rate
            out["shm.pickle_fallbacks"] = engine.transport.pickle_fallbacks

        doc = A.chrome_trace_document(
            engine.trace_arena.drain(), engine.trace_names,
            rank_labels=engine.trace_rank_labels(), dropped=engine.trace_arena.dropped(),
        )
        self_s = span_self_seconds(doc)
        for name in SPAN_NAMES:
            out[f"obs.self_ms.{name}"] = self_s.get(name, 0.0) / max(1, m.items) * 1e3
        out["obs.dropped_spans"] = sum(doc["otherData"]["dropped_spans"])

        replay = self.batches[:32]
        out.update(probes.trace_overhead(lambda traced: self._make_engine(tracing=traced), self.batches))
        out.update(probes.serving_sampler(self.ds.graph, engine.sampler, replay, self.seed))
        if self.cache_entries:
            out.update(probes.cache_ops(self.batches[:512].ravel(), self.snapshot.out_dim))
        if self.mode == "pool":
            out.update(probes.infer_dispatch(
                lambda mode: self._make_engine(mode=mode, cache_entries=0),
                [int(n) for n in self.probe[:16]],
            ))
            out.update(probes.arena_roundtrip(self.snapshot.out_dim, REQ_BATCH))
            out.update(probes.shm_store_build(self.ds))
        if self.deltas:
            out.update(probes.graph_deltas(
                self.ds, self.edge_batches[:48], engine.sampler, replay, self.seed
            ))
        return out


# ----------------------------------------------------------------------
# auto-tuning over simulated runtimes
# ----------------------------------------------------------------------
class Autotune(Workload):
    CELLS = tuple(
        A.ExperimentSetup(task, DATASET, platform, "dgl")
        for task in ("neighbor-sage", "shadow-gcn")
        for platform in ("icelake", "sapphire")
    )
    #: rounds (tuner seeds per cell) the quality figure is taken over
    SEEDS_PER_CELL = 24

    def prepare(self, seed, seconds):
        self.seed = seed
        self._setups = 0

    def setup(self, tracing=False):
        # build_runtime memoises per seed; a world seed this process has
        # not built yet makes every set-up a cold one
        rt_seed = WORLD_SEED + 7919 * self._setups
        self._setups += 1
        return [A.build_runtime(cell, seed=rt_seed) for cell in self.CELLS]

    def _tune(self, rt, space, round_no: int):
        tuner = A.OnlineAutoTuner(
            space, space.paper_budget(), seed=self.seed * 100003 + round_no
        )
        return tuner.tune(rt.measure_epoch)

    def measure(self, cells, seconds, min_ops):
        # one op is a round over all four cells: their budgets differ
        # (15 vs 8 trials), so single runs are bimodal and their median
        # flips between the modes from run to run
        samples, trials, failed = [], 0, 0
        start = pc()
        for round_no in itertools.count():
            if round_no >= min_ops and pc() - start >= seconds:
                break
            t0 = pc()
            for rt, space in cells:
                try:
                    result = self._tune(rt, space, round_no)
                    failed += tuple(result.best_config) not in space
                    trials += result.num_searches
                except Exception:  # one bad search must not end the run
                    failed += 1
            samples.append((pc() - t0) * 1e3)
        return Measured(samples, trials, pc() - start, len(samples) * len(cells), failed)

    def layers(self, cells, seconds):
        optimum, eval_s = [], []
        for rt, space in cells:
            start = pc()
            optimum.append(min(rt.true_epoch_time(c) for c in space.configs))
            eval_s.append((pc() - start) / len(space))
        best_of = {id(rt): opt for (rt, _), opt in zip(cells, optimum)}
        ratios, overhead, trials, overhead_frac, surrogate = [], 0.0, 0, [], 0
        for round_no in range(self.SEEDS_PER_CELL):
            for rt, space in cells:
                result = self._tune(rt, space, round_no)
                tuned = rt.true_epoch_time(result.best_config)
                ratios.append(tuned / best_of[id(rt)])
                overhead += result.overhead_seconds
                trials += result.num_searches
                overhead_frac.append(result.overhead_seconds / (200 * tuned))
                surrogate = max(surrogate, result.surrogate_memory_bytes)
        rt, space = cells[0]
        out = {
            "core.tuned_over_optimal": sum(ratios) / len(ratios),
            "core.tuned_over_optimal_max": max(ratios),
            "core.tuner_ms_per_search": overhead / trials * 1e3,
            "core.tuner_overhead_frac": sum(overhead_frac) / len(overhead_frac),
            "core.surrogate_mb": surrogate / 1e6,
            "platform.costmodel_eval_us": median(eval_s) * 1e6,
            "tuning.space_size": sum(len(space) for _, space in cells),
            "tuning.searches": trials,
        }
        out.update(probes.surrogate(space, space.paper_budget(), self.seed))
        return out


def build(name: str) -> Workload:
    table = {
        "train_sage_inline1": lambda n: Train(n, "neighbor-sage"),
        "train_sage_proc2": lambda n: Train(n, "neighbor-sage", ranks=2, backend="process"),
        "train_sage_prefetch1": lambda n: Train(n, "neighbor-sage", prefetch=True),
        "train_shadow_inline1": lambda n: Train(n, "shadow-gcn", scale=13),
        "serve_open_zipf_inline": lambda n: Serve(
            n, mode="inline", cache_entries=4096, alpha=ZIPF_ALPHA, loop="open"),
        "serve_drain_uniform_pool2": lambda n: Serve(
            n, mode="pool", workers=2, cache_entries=0, alpha=0.0, loop="closed"),
        "serve_drain_deltas_pool2": lambda n: Serve(
            n, mode="pool", workers=2, cache_entries=4096, alpha=ZIPF_ALPHA, loop="closed",
            deltas=True),
        "autotune_sim": Autotune,
    }
    return table[name](name)
