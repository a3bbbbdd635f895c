"""Node data loader: shuffling, batching, sampling, feature slicing.

Equivalent of ``dgl.dataloading.DataLoader``: iterates the training node
set in shuffled mini-batches, invokes the sampler on each batch and
attaches labels.  The ``num_workers`` argument mirrors the knob ARGO's
auto-tuner controls (Listing 3's ``num_workers=num_of_samplers``); wrap
the loader in :class:`repro.pipeline.PrefetchingLoader` to actually run
that many sampler workers overlapped with computation — the numerics are
identical either way because every batch's sampling RNG is a pure
function of ``(seed, epoch, rank, step)``, never of which worker ran it
(core binding changes speed, never semantics).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.base import Sampler
from repro.sampling.block import MiniBatch
from repro.utils.rng import as_generator, derive_rng
from repro.utils.validation import check_positive_int

__all__ = ["NodeDataLoader"]


class NodeDataLoader:
    """Iterable over sampled mini-batches of a node set.

    Parameters
    ----------
    graph, nodes, labels:
        The full graph, the node ids to iterate (e.g. the train split) and
        the full label vector (indexed by global id).
    sampler:
        Any :class:`repro.sampling.base.Sampler`.
    batch_size:
        Seeds per iteration.  The Multi-Process Engine passes ``b/n`` here.
    shuffle:
        Reshuffle the node order every epoch (seeded, per-epoch stream).
    drop_last:
        Drop a trailing partial batch (keeps per-iteration workload
        comparable across ranks; DDP requires equal step counts).
    num_workers:
        Number of sampling workers this loader is meant to run under —
        consumed by the performance model and by
        :class:`repro.pipeline.PrefetchingLoader`; does not change
        results.
    seed:
        Base seed; epoch ``e`` uses an independent derived stream.
    rank, world_size:
        DDP-style sharding: the loader iterates only rank ``rank``'s
        strided share of the (epoch-shuffled) node order.  The shuffle
        uses a *world-shared* stream and each batch's sampling RNG is
        derived purely from ``(seed, epoch, rank, step)`` — never from
        thread or process identity — so every execution backend (inline,
        thread, process) and every prefetch setting sees bit-identical
        per-rank sample streams.

    Equal step counts across ranks
    ------------------------------
    With ``world_size > 1`` the strided shards can differ in size by one
    node, which would give ranks *unequal* batch counts — a collective
    (gradient all-reduce) issued per batch would then deadlock, some
    ranks having exited the loop.  The loader therefore normalises every
    rank to the common step count:

    * ``drop_last=False`` — short ranks **pad** with one extra batch that
      wraps around to the start of their own shard (the
      ``DistributedSampler`` convention: a few duplicate seeds, never a
      missing collective);
    * ``drop_last=True`` — long ranks **trim** to the shortest rank's
      full-batch count (consistent with drop-last semantics).

    ``len(loader)`` always reports this common count, identical on every
    rank.
    """

    def __init__(
        self,
        graph: CSRGraph,
        nodes: np.ndarray,
        labels: np.ndarray,
        sampler: Sampler,
        *,
        batch_size: int,
        shuffle: bool = True,
        drop_last: bool = False,
        num_workers: int = 1,
        seed: int | None = 0,
        rank: int = 0,
        world_size: int = 1,
    ):
        self.graph = graph
        self.nodes = np.asarray(nodes, dtype=np.int64)
        if len(self.nodes) == 0:
            raise ValueError("NodeDataLoader needs a non-empty node set")
        self.labels = np.asarray(labels, dtype=np.int64)
        self.sampler = sampler
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.shuffle = bool(shuffle)
        self.drop_last = bool(drop_last)
        self.num_workers = check_positive_int(num_workers, "num_workers")
        self.seed = seed
        self.world_size = check_positive_int(world_size, "world_size")
        if not 0 <= int(rank) < self.world_size:
            raise ValueError(f"rank {rank} out of range for world size {world_size}")
        self.rank = int(rank)
        if self.world_size > 1 and len(self.nodes) < self.world_size:
            raise ValueError(
                f"cannot shard {len(self.nodes)} nodes over {world_size} ranks"
            )
        if self.world_size > 1 and seed is None:
            # without a seed every rank would draw its own entropy for the
            # "world-shared" shuffle, so the strided shards would overlap
            # and skip nodes instead of partitioning them
            raise ValueError("sharded loading (world_size > 1) requires a seed")
        self._epoch = 0

    def set_epoch(self, epoch: int) -> None:
        """Choose the shuffle/sampling stream (DDP-style epoch seeding)."""
        self._epoch = int(epoch)

    @property
    def epoch(self) -> int:
        return self._epoch

    def _shard_size(self, rank: int | None = None) -> int:
        """Nodes a rank iterates (strided split of the global order)."""
        n, w = len(self.nodes), self.world_size
        r = self.rank if rank is None else rank
        return n // w + (1 if r < n % w else 0)

    def _rank_steps(self, rank: int) -> int:
        """Raw (un-normalised) batch count of one rank's shard."""
        n = self._shard_size(rank)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __len__(self) -> int:
        """Common per-rank step count (identical on every rank)."""
        counts = [self._rank_steps(r) for r in range(self.world_size)]
        return min(counts) if self.drop_last else max(counts)

    # ------------------------------------------------------------------
    # per-batch decomposition (consumed by the prefetching pipeline)
    # ------------------------------------------------------------------
    def batch_seeds(self) -> list[np.ndarray]:
        """This epoch's per-batch seed arrays, normalised to ``len(self)``.

        Pure function of ``(seed, epoch, rank)``; step ``i`` of the
        returned list is exactly the seed set :meth:`__iter__` samples at
        step ``i``.
        """
        shuffle_rng = as_generator(
            None if self.seed is None else (self.seed, self._epoch)
        )
        order = shuffle_rng.permutation(self.nodes) if self.shuffle else self.nodes
        if self.world_size > 1:
            order = order[self.rank :: self.world_size]
        n_batches = len(self)
        b = self.batch_size
        batches = [order[i * b : (i + 1) * b] for i in range(n_batches)]
        # pad a short shard's missing trailing batches by wrapping around
        # to the start of its own shard (drop_last=False only; with
        # drop_last=True, len() already trimmed to full batches)
        for i, seeds in enumerate(batches):
            if len(seeds) == 0:
                batches[i] = order[: min(b, len(order))]
        return batches

    def sample_batch(self, step: int, seeds: np.ndarray) -> MiniBatch:
        """Sample batch ``step`` of the current epoch (labels attached).

        The RNG is derived from ``(seed, epoch, rank, step)`` alone, so
        batches may be sampled concurrently and out of order — by any
        worker — and still reproduce the sequential stream.
        """
        rng = (
            as_generator(None)
            if self.seed is None
            else derive_rng(self.seed, "batch", self._epoch, self.rank, step)
        )
        batch = self.sampler.sample(self.graph, seeds, rng=rng)
        batch.labels = self.labels[batch.seeds]
        return batch

    def __iter__(self) -> Iterator[MiniBatch]:
        for step, seeds in enumerate(self.batch_seeds()):
            yield self.sample_batch(step, seeds)
