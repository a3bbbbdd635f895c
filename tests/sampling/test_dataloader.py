"""NodeDataLoader: batching, shuffling, epochs."""

import numpy as np
import pytest

from repro.sampling.dataloader import NodeDataLoader
from repro.sampling.neighbor import NeighborSampler


@pytest.fixture
def loader_args(tiny_dataset):
    return dict(
        graph=tiny_dataset.graph,
        nodes=tiny_dataset.train_idx,
        labels=tiny_dataset.labels,
        sampler=NeighborSampler([5, 5]),
    )


class TestBatching:
    def test_len_without_drop(self, loader_args):
        n = len(loader_args["nodes"])
        loader = NodeDataLoader(**loader_args, batch_size=16)
        assert len(loader) == (n + 15) // 16

    def test_len_with_drop(self, loader_args):
        n = len(loader_args["nodes"])
        loader = NodeDataLoader(**loader_args, batch_size=16, drop_last=True)
        assert len(loader) == n // 16

    def test_covers_all_nodes(self, loader_args):
        loader = NodeDataLoader(**loader_args, batch_size=16, seed=0)
        seen = np.concatenate([b.seeds for b in loader])
        assert sorted(seen.tolist()) == sorted(loader_args["nodes"].tolist())

    def test_labels_attached(self, loader_args, tiny_dataset):
        loader = NodeDataLoader(**loader_args, batch_size=16, seed=0)
        batch = next(iter(loader))
        np.testing.assert_array_equal(batch.labels, tiny_dataset.labels[batch.seeds])

    def test_rejects_empty_nodes(self, loader_args):
        args = dict(loader_args, nodes=np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            NodeDataLoader(**args, batch_size=4)

    def test_rejects_bad_batch_size(self, loader_args):
        with pytest.raises(ValueError):
            NodeDataLoader(**loader_args, batch_size=0)


class TestShuffling:
    def test_same_epoch_same_order(self, loader_args):
        loader = NodeDataLoader(**loader_args, batch_size=16, seed=1)
        a = [b.seeds.copy() for b in loader]
        b = [b.seeds.copy() for b in loader]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_epochs_reshuffle(self, loader_args):
        loader = NodeDataLoader(**loader_args, batch_size=16, seed=1)
        first = next(iter(loader)).seeds.copy()
        loader.set_epoch(1)
        second = next(iter(loader)).seeds.copy()
        assert not np.array_equal(first, second)

    def test_no_shuffle_keeps_order(self, loader_args):
        loader = NodeDataLoader(**loader_args, batch_size=16, shuffle=False)
        batch = next(iter(loader))
        np.testing.assert_array_equal(batch.seeds, loader_args["nodes"][:16])

    def test_num_workers_metadata(self, loader_args):
        loader = NodeDataLoader(**loader_args, batch_size=16, num_workers=4)
        assert loader.num_workers == 4


class TestRankSharding:
    """DDP-style rank/world_size sharding with backend-independent streams."""

    def test_default_is_unsharded(self, loader_args):
        loader = NodeDataLoader(**loader_args, batch_size=16, seed=0)
        assert loader.rank == 0 and loader.world_size == 1

    def test_world_size_one_stream_unchanged(self, loader_args):
        """Explicit (rank=0, world=1) must reproduce the historical stream."""
        a = NodeDataLoader(**loader_args, batch_size=16, seed=3)
        b = NodeDataLoader(**loader_args, batch_size=16, seed=3, rank=0, world_size=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.seeds, y.seeds)
            np.testing.assert_array_equal(x.input_ids, y.input_ids)

    def test_shards_partition_the_node_set(self, loader_args):
        world = 3
        seen = []
        for rank in range(world):
            loader = NodeDataLoader(
                **loader_args, batch_size=16, seed=0, rank=rank, world_size=world
            )
            for batch in loader:
                seen.extend(batch.seeds.tolist())
        assert sorted(seen) == sorted(loader_args["nodes"].tolist())

    def test_shard_lengths_near_equal(self, loader_args):
        world = 4
        sizes = [
            NodeDataLoader(
                **loader_args, batch_size=1, seed=0, rank=r, world_size=world
            )._shard_size()
            for r in range(world)
        ]
        assert sum(sizes) == len(loader_args["nodes"])
        assert max(sizes) - min(sizes) <= 1

    def test_rank_stream_is_deterministic(self, loader_args):
        """The per-rank sampling stream depends only on (seed, epoch, rank)."""
        a = NodeDataLoader(**loader_args, batch_size=16, seed=5, rank=1, world_size=2)
        b = NodeDataLoader(**loader_args, batch_size=16, seed=5, rank=1, world_size=2)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.seeds, y.seeds)
            np.testing.assert_array_equal(x.input_ids, y.input_ids)

    def test_ranks_use_independent_streams(self, loader_args):
        a = NodeDataLoader(**loader_args, batch_size=16, seed=5, rank=0, world_size=2)
        b = NodeDataLoader(**loader_args, batch_size=16, seed=5, rank=1, world_size=2)
        assert not np.array_equal(next(iter(a)).seeds, next(iter(b)).seeds)

    def test_len_reflects_shard(self, loader_args):
        full = NodeDataLoader(**loader_args, batch_size=16, seed=0)
        shard = NodeDataLoader(**loader_args, batch_size=16, seed=0, rank=0, world_size=4)
        assert len(shard) < len(full)
        assert len(shard) == len(list(shard))

    def test_invalid_rank_rejected(self, loader_args):
        with pytest.raises(ValueError, match="rank"):
            NodeDataLoader(**loader_args, batch_size=16, rank=2, world_size=2)

    def test_oversharding_rejected(self, loader_args):
        tiny = dict(loader_args, nodes=loader_args["nodes"][:2])
        with pytest.raises(ValueError, match="shard"):
            NodeDataLoader(**tiny, batch_size=1, world_size=4)

    def test_sharding_requires_seed(self, loader_args):
        # seed=None would give each rank its own shuffle entropy and break
        # the partition guarantee
        with pytest.raises(ValueError, match="requires a seed"):
            NodeDataLoader(**loader_args, batch_size=16, seed=None, world_size=2)


class TestEqualStepCounts:
    """Uneven shards must not yield unequal per-rank batch counts.

    A collective issued per batch deadlocks if any rank runs fewer steps;
    the loader pads (drop_last=False) or trims (drop_last=True) every
    rank to a common count.
    """

    def uneven_loaders(self, loader_args, *, drop_last):
        # batch_size=1 over 4 ranks and 10 nodes: shards (3, 3, 2, 2),
        # so raw per-rank step counts differ — the unequal-step trap
        nodes = loader_args["nodes"][:10]
        return [
            NodeDataLoader(
                **dict(loader_args, nodes=nodes),
                batch_size=1,
                seed=0,
                rank=r,
                world_size=4,
                drop_last=drop_last,
            )
            for r in range(4)
        ]

    def test_pad_equalises_without_drop(self, loader_args):
        loaders = self.uneven_loaders(loader_args, drop_last=False)
        lens = {len(l) for l in loaders}
        assert len(lens) == 1
        for l in loaders:
            assert len(list(l)) == len(l)

    def test_trim_equalises_with_drop(self, loader_args):
        loaders = self.uneven_loaders(loader_args, drop_last=True)
        lens = {len(l) for l in loaders}
        assert len(lens) == 1
        for l in loaders:
            assert len(list(l)) == len(l)

    def test_padding_covers_every_node(self, loader_args):
        loaders = self.uneven_loaders(loader_args, drop_last=False)
        nodes = set(loader_args["nodes"][:10].tolist())
        seen = set()
        for l in loaders:
            for b in l:
                seen.update(b.seeds.tolist())
        assert seen == nodes  # padding duplicates, never drops

    def test_padded_batch_wraps_shard_start(self, loader_args):
        # world=3 over 7 nodes with batch 3: shards (3, 2, 2) -> steps
        # (1, 1, 1); world=3 over 8 nodes: shards (3, 3, 2), batch 3 ->
        # raw steps (1, 1, 1); use batch 2: (2, 2, 1) -> pad rank 2
        nodes = loader_args["nodes"][:8]
        loaders = [
            NodeDataLoader(
                **dict(loader_args, nodes=nodes),
                batch_size=2,
                seed=0,
                rank=r,
                world_size=3,
                shuffle=False,
            )
            for r in range(3)
        ]
        assert {len(l) for l in loaders} == {2}
        short = [b.seeds for b in loaders[2]]
        # rank 2's shard has 2 nodes: batch 0 holds both, batch 1 wraps
        np.testing.assert_array_equal(short[1], short[0][: len(short[1])])

    def test_equal_shards_unchanged(self, loader_args):
        """When shards divide evenly no padding or trimming happens."""
        nodes = loader_args["nodes"][:96]
        loaders = [
            NodeDataLoader(
                **dict(loader_args, nodes=nodes),
                batch_size=16,
                seed=0,
                rank=r,
                world_size=2,
            )
            for r in range(2)
        ]
        for l in loaders:
            assert len(l) == 3
            batches = list(l)
            assert all(len(b.seeds) == 16 for b in batches)


class TestPerBatchStreams:
    """Batch sampling is a pure function of (seed, epoch, rank, step)."""

    def test_sample_batch_matches_iteration(self, loader_args):
        loader = NodeDataLoader(**loader_args, batch_size=16, seed=4)
        via_iter = [(b.seeds.copy(), b.input_ids.copy()) for b in loader]
        seeds_per_step = loader.batch_seeds()
        # sample out of order: results must not depend on call sequence
        for step in reversed(range(len(loader))):
            b = loader.sample_batch(step, seeds_per_step[step])
            np.testing.assert_array_equal(b.seeds, via_iter[step][0])
            np.testing.assert_array_equal(b.input_ids, via_iter[step][1])

    def test_batch_seeds_is_stable(self, loader_args):
        loader = NodeDataLoader(**loader_args, batch_size=16, seed=4)
        a = loader.batch_seeds()
        b = loader.batch_seeds()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_labels_attached_by_sample_batch(self, loader_args, tiny_dataset):
        loader = NodeDataLoader(**loader_args, batch_size=16, seed=4)
        batch = loader.sample_batch(0, loader.batch_seeds()[0])
        np.testing.assert_array_equal(batch.labels, tiny_dataset.labels[batch.seeds])

