"""ProcessWorld / ProcessCommunicator collectives across real processes."""

import itertools
import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.autograd.module import Linear
from repro.distributed.comm import ProcessWorld
from repro.distributed.ddp import average_gradients

#: rank r contributes ADVERSARIAL[r]: in float64, (1 + 1e-30) - 1 is 0 but
#: (1 - 1) + 1e-30 is 1e-30, so the mean depends on summation order
ADVERSARIAL = np.array([1.0, 1e-30, -1.0], dtype=np.float32)

#: seconds between consecutive ranks' arrivals at a staggered all-reduce
STAGGER_S = 0.1

#: per-rank all-reduce inputs: ``case(rank)`` is a list of rounds, each
#: round the list of arrays one ``allreduce_mean`` call carries
ALLREDUCE_CASES = {
    "one-array": lambda rank: [[np.full(3, float(rank))]],
    "five-rounds": lambda rank: [[np.array([float(rank + i)])] for i in range(5)],
    "several-arrays": lambda rank: [
        [
            np.array([rank + 1.0]),
            np.full((2, 2), 10.0 * rank),
            np.arange(3, dtype=np.float32) / (rank + 3),
        ]
    ],
    "float32": lambda rank: [[np.full((2, 3), rank + 1.0, dtype=np.float32) / 3]],
}


def _rank_ordered_mean(contribs):
    """Float64 sum over ranks 0..n-1 in order, divided by n, cast back."""
    total = np.zeros(contribs[0].shape)
    for c in contribs:
        total += c
    return (total / len(contribs)).astype(contribs[0].dtype)


def _run_ranks(world, target, world_size, extra=()):
    """Start one process per rank running ``target(world, rank, q, *extra)``."""
    ctx = mp.get_context()
    q = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(world, r, q) + tuple(extra))
        for r in range(world_size)
    ]
    for p in procs:
        p.start()
    try:
        results = [q.get(timeout=60.0) for _ in range(world_size)]
    finally:
        for p in procs:
            p.join(timeout=30.0)
            if p.is_alive():
                p.kill()
                p.join()
    assert all(p.exitcode == 0 for p in procs)
    return dict(results)


def _allreduce_worker(world, rank, q):
    comm = world.communicator(rank)
    a = np.full((3,), float(rank + 1), dtype=np.float32)
    b = np.full((2, 2), float(10 * (rank + 1)), dtype=np.float64)
    out = comm.allreduce_mean([a, b])
    # run a second round to prove the accumulator resets cleanly
    out2 = comm.allreduce_mean([np.full((3,), float(rank), dtype=np.float32)])
    q.put((rank, (out[0].tolist(), out[1].tolist(), out2[0].tolist(),
                  str(out[0].dtype), tuple(out[1].shape))))


class TestAllreduce:
    def test_mean_across_process_ranks(self):
        n = 3
        with ProcessWorld(n, capacity=16) as world:
            res = _run_ranks(world, _allreduce_worker, n)
        for rank in range(n):
            vec, mat, vec2, dtype, shape = res[rank]
            np.testing.assert_allclose(vec, [2.0] * 3)  # mean(1, 2, 3)
            np.testing.assert_allclose(mat, [[20.0, 20.0], [20.0, 20.0]])
            np.testing.assert_allclose(vec2, [1.0] * 3)  # mean(0, 1, 2)
            assert dtype == "float32" and shape == (2, 2)

    def test_capacity_enforced(self):
        with ProcessWorld(1, capacity=4) as world:
            comm = world.communicator(0)
            with pytest.raises(ValueError, match="capacity"):
                comm.allreduce_mean([np.zeros(5)])

    def test_world_size_one_is_identity(self):
        with ProcessWorld(1, capacity=8) as world:
            comm = world.communicator(0)
            out = comm.allreduce_mean([np.array([1.5, -2.0], dtype=np.float32)])
            np.testing.assert_allclose(out[0], [1.5, -2.0])


def _case_worker(world, rank, q, case):
    comm = world.communicator(rank)
    outs = [comm.allreduce_mean(arrays) for arrays in ALLREDUCE_CASES[case](rank)]
    q.put((rank, outs))


def _permutation_worker(world, rank, q):
    comm = world.communicator(rank)
    outs = []
    for order in itertools.permutations(range(world.world_size)):
        comm.barrier()  # line up, then arrive in ``order``
        time.sleep(STAGGER_S * order.index(rank))
        (out,) = comm.allreduce_mean([ADVERSARIAL[rank : rank + 1]])
        outs.append(out)
    q.put((rank, outs))


def _resize_value(rank, round_):
    return ADVERSARIAL[rank : rank + 1] * np.float32(round_ + 1)


def _resize_worker(world, rank, cmds, results):
    while (cmd := cmds[rank].get()) is not None:
        round_, n = cmd
        world.rebind(n)
        # rank 1's 1e-30 arrives last: summed in arrival order it would
        # survive the 1 - 1 cancellation, summed in rank order it does not
        time.sleep(STAGGER_S * (0, 2, 1)[rank])
        (out,) = world.communicator(rank).allreduce_mean([_resize_value(rank, round_)])
        results.put((rank, out))


class TestRankOrderedAllreduce:
    """The mean is the rank-ordered float64 sum over ranks, whatever the
    arrival order — the arithmetic of ``ddp.average_gradients``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", sorted(ALLREDUCE_CASES))
    def test_mean_is_rank_ordered(self, case, n):
        with ProcessWorld(n, capacity=16) as world:
            res = _run_ranks(world, _case_worker, n, extra=(case,))
        inputs = [ALLREDUCE_CASES[case](r) for r in range(n)]
        for rank in range(n):
            assert len(res[rank]) == len(inputs[0])
            for i, outs in enumerate(res[rank]):
                for j, out in enumerate(outs):
                    expected = _rank_ordered_mean([inputs[r][i][j] for r in range(n)])
                    assert out.dtype == expected.dtype
                    assert out.shape == expected.shape
                    assert out.tobytes() == expected.tobytes()

    def test_every_arrival_order_gives_average_gradients(self):
        n = len(ADVERSARIAL)
        model = Linear(1, 1, rng=np.random.default_rng(0))
        average_gradients(
            [model.bias], [[ADVERSARIAL[rank : rank + 1].copy()] for rank in range(n)]
        )
        expected = model.bias.grad
        with ProcessWorld(n, capacity=1) as world:
            res = _run_ranks(world, _permutation_worker, n)
        for rank in range(n):
            got = [out.tobytes() for out in res[rank]]
            assert len(got) == 6
            assert set(got) == {expected.tobytes()}, [out[0] for out in res[rank]]

    def test_shrink_then_grow_stays_rank_ordered(self):
        ctx = mp.get_context()
        sizes = (3, 2, 3)
        with ProcessWorld(max(sizes), capacity=1, timeout=30.0) as world:
            cmds = [ctx.SimpleQueue() for _ in range(world.max_world_size)]
            results = ctx.Queue()
            procs = [
                ctx.Process(target=_resize_worker, args=(world, r, cmds, results))
                for r in range(world.max_world_size)
            ]
            for p in procs:
                p.start()
            try:
                for round_, n in enumerate(sizes):
                    world.resize(n)
                    for rank in range(n):
                        cmds[rank].put((round_, n))
                    got = dict(results.get(timeout=60.0) for _ in range(n))
                    expected = _rank_ordered_mean(
                        [_resize_value(r, round_) for r in range(n)]
                    )
                    for rank in range(n):
                        assert got[rank].tobytes() == expected.tobytes(), (n, got)
            finally:
                for c in cmds:
                    c.put(None)
                for p in procs:
                    p.join(timeout=30.0)
                    if p.is_alive():
                        p.kill()
                        p.join()
            assert all(p.exitcode == 0 for p in procs)


class TestWorldLifecycle:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ProcessWorld(0, capacity=4)
        with pytest.raises(ValueError):
            ProcessWorld(1, capacity=0)

    def test_rank_range_checked(self):
        with ProcessWorld(2, capacity=4) as world:
            with pytest.raises(ValueError, match="rank"):
                world.communicator(2)

    def test_unlink_frees_segment(self):
        import os

        world = ProcessWorld(1, capacity=4)
        name = world._shm.name
        world.unlink()
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_broken_barrier_raises_runtime_error(self):
        world = ProcessWorld(2, capacity=4, timeout=0.2)
        try:
            comm = world.communicator(0)
            # no peer ever arrives: the wait must time out, not hang
            with pytest.raises(RuntimeError, match="collective broken"):
                comm.barrier()
        finally:
            world.unlink()
