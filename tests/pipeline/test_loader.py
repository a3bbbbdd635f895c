"""PrefetchingLoader: parity with the synchronous loader, lifecycle, failures."""

import numpy as np
import pytest

from repro.pipeline import PrefetchingLoader
from repro.sampling.dataloader import NodeDataLoader
from repro.sampling.neighbor import NeighborSampler


def make_base(tiny_dataset, **kw):
    args = dict(
        graph=tiny_dataset.graph,
        nodes=tiny_dataset.train_idx,
        labels=tiny_dataset.labels,
        sampler=NeighborSampler([5, 5]),
        batch_size=16,
        seed=3,
    )
    args.update(kw)
    return NodeDataLoader(**args)


def snapshot(loader):
    return [
        (b.seeds.copy(), b.input_ids.copy(), b.labels.copy()) for b in loader
    ]


def assert_same_stream(a, b):
    assert len(a) == len(b)
    for (s1, i1, l1), (s2, i2, l2) in zip(a, b):
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(l1, l2)


class TestParity:
    @pytest.mark.parametrize("num_workers,queue_depth", [(1, 1), (2, 4), (4, 2)])
    def test_stream_identical_to_sync(self, tiny_dataset, num_workers, queue_depth):
        base = snapshot(make_base(tiny_dataset))
        with PrefetchingLoader(
            make_base(tiny_dataset),
            num_workers=num_workers,
            queue_depth=queue_depth,
        ) as pf:
            assert_same_stream(base, snapshot(pf))

    def test_epochs_tracked(self, tiny_dataset):
        base = make_base(tiny_dataset)
        base.set_epoch(2)
        expected = snapshot(base)
        with PrefetchingLoader(make_base(tiny_dataset), num_workers=2) as pf:
            pf.set_epoch(2)
            assert pf.epoch == 2
            assert_same_stream(expected, snapshot(pf))
            # the next epoch re-derives its own stream
            pf.set_epoch(0)
            base.set_epoch(0)
            assert_same_stream(snapshot(base), snapshot(pf))

    def test_sharded_rank_stream(self, tiny_dataset):
        base = make_base(tiny_dataset, seed=0, rank=1, world_size=2)
        expected = snapshot(base)
        with PrefetchingLoader(
            make_base(tiny_dataset, seed=0, rank=1, world_size=2),
            num_workers=2,
        ) as pf:
            assert_same_stream(expected, snapshot(pf))


class TestApi:
    def test_len_delegates(self, tiny_dataset):
        base = make_base(tiny_dataset)
        with PrefetchingLoader(base, num_workers=1) as pf:
            assert len(pf) == len(base)

    def test_default_workers_from_loader(self, tiny_dataset):
        with PrefetchingLoader(make_base(tiny_dataset, num_workers=3)) as pf:
            assert pf.num_workers == 3

    def test_rejects_bad_workers(self, tiny_dataset):
        with pytest.raises(ValueError):
            PrefetchingLoader(make_base(tiny_dataset), num_workers=0)

    def test_stats_accumulate(self, tiny_dataset):
        with PrefetchingLoader(make_base(tiny_dataset), num_workers=2) as pf:
            n = len(pf)
            list(pf)
            list(pf)
            assert pf.stats.batches == 2 * n
            assert pf.stats.busy_time > 0  # workers really sampled
            assert pf.stats.wait_time >= 0

    def test_closed_loader_rejects_iteration(self, tiny_dataset):
        pf = PrefetchingLoader(make_base(tiny_dataset))
        pf.close()
        with pytest.raises(ValueError, match="closed"):
            iter(pf)


class _ExplodingSampler(NeighborSampler):
    """Raises on every sample call."""

    def sample(self, graph, seeds, *, rng=None):
        raise RuntimeError("sampler exploded")


class TestFailureAndCleanup:
    def test_thread_worker_error_propagates(self, tiny_dataset):
        loader = make_base(tiny_dataset, sampler=_ExplodingSampler([5, 5]))
        with PrefetchingLoader(loader, num_workers=2) as pf:
            with pytest.raises(RuntimeError, match="sampler exploded"):
                list(pf)
