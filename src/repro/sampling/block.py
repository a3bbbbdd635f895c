"""Bipartite message-flow blocks (DGL's ``MFG``/``block`` equivalent).

A :class:`Block` connects a set of *source* nodes (holding layer ``l-1``
features) to a set of *destination* nodes (receiving layer ``l`` features)
with local-index edges.  The invariant ``dst_ids == src_ids[:num_dst]``
(destination prefix) lets layers access the previous representation of
each destination node as ``h_src[:num_dst]`` — required by GraphSAGE's
``h_v || mean(h_u)`` update.

:class:`MiniBatch` bundles the ``L`` blocks of one training iteration plus
the bookkeeping the workload profiler (Fig. 5/6) needs: total sampled
edges and nodes.

Merged (shared-frontier) blocks
-------------------------------
The serving runtime's frontier merger
(:func:`repro.serve.frontier.merge_frontiers`) concatenates several
independently-sampled blocks into one block-diagonal union.  In that
layout the destination nodes are *not* a prefix of ``src_ids`` — each
request keeps its own prefix inside its segment — so a merged block
carries ``src_splits``/``dst_splits`` (the per-request segment offsets
into the source and destination rows).  :attr:`Block.dst_positions`
abstracts the difference: the position of each destination row within
the source rows, ``arange(num_dst)`` for ordinary prefix blocks.  GNN
layers index through it (and pass the splits to the segmented matmul),
which is what lets one model forward serve both layouts bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Block", "MiniBatch"]


@dataclass
class Block:
    """One bipartite sampling layer.

    Attributes
    ----------
    src_ids:
        Global node ids of source nodes; the first ``num_dst`` entries are
        the destination nodes (prefix convention), unless this is a merged
        block (``src_splits`` set), where each request segment holds its
        own destination prefix instead.
    num_dst:
        Number of destination nodes.
    edge_src, edge_dst:
        Local edge endpoints: ``edge_src[e]`` indexes ``src_ids``;
        ``edge_dst[e]`` indexes the destination numbering (the prefix for
        ordinary blocks, the concatenated per-request prefixes for merged
        ones).
    src_splits, dst_splits:
        Merged blocks only: per-request segment offsets into the source
        rows and the destination rows (both ``len == requests + 1``,
        starting at 0 and ending at ``num_src``/``num_dst``).  ``None``
        for ordinary single-request blocks.
    """

    src_ids: np.ndarray
    num_dst: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    src_splits: np.ndarray | None = None
    dst_splits: np.ndarray | None = None
    # derived data (the aggregation operators of repro.gnn.aggregate),
    # built once per block by memo(); not a constructor field, ignored
    # by == and repr, dropped on pickling
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.src_ids = np.asarray(self.src_ids, dtype=np.int64)
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        if self.num_dst < 0 or self.num_dst > len(self.src_ids):
            raise ValueError(
                f"num_dst={self.num_dst} out of range for {len(self.src_ids)} src nodes"
            )
        if self.edge_src.shape != self.edge_dst.shape:
            raise ValueError("edge_src/edge_dst length mismatch")
        if len(self.edge_src):
            if self.edge_src.min() < 0 or self.edge_src.max() >= self.num_src:
                raise ValueError("edge_src out of range")
            if self.edge_dst.min() < 0 or self.edge_dst.max() >= self.num_dst:
                raise ValueError("edge_dst out of range")
        if (self.src_splits is None) != (self.dst_splits is None):
            raise ValueError("src_splits and dst_splits must be set together")
        if self.src_splits is not None:
            self.src_splits = np.asarray(self.src_splits, dtype=np.int64)
            self.dst_splits = np.asarray(self.dst_splits, dtype=np.int64)
            for name, splits, total in (
                ("src_splits", self.src_splits, self.num_src),
                ("dst_splits", self.dst_splits, self.num_dst),
            ):
                if (
                    splits.ndim != 1
                    or len(splits) < 2
                    or splits[0] != 0
                    or splits[-1] != total
                    or np.any(np.diff(splits) < 0)
                ):
                    raise ValueError(f"{name} is not a monotone 0..{total} offset array")
            if len(self.src_splits) != len(self.dst_splits):
                raise ValueError("src_splits/dst_splits segment-count mismatch")
            seg_dst = np.diff(self.dst_splits)
            if np.any(seg_dst > np.diff(self.src_splits)):
                raise ValueError("a segment has more destinations than sources")

    @property
    def num_src(self) -> int:
        return len(self.src_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    @property
    def num_segments(self) -> int:
        """Merged request segments (1 for an ordinary prefix block)."""
        return 1 if self.src_splits is None else len(self.src_splits) - 1

    @property
    def dst_positions(self) -> np.ndarray:
        """Position of each destination row within the source rows.

        ``arange(num_dst)`` under the prefix convention; for merged
        blocks, each request's destination rows sit at the head of its
        own source segment.  GNN layers read destination features as
        ``h_src[dst_positions]`` so the same forward covers both layouts.
        """
        if self.src_splits is None:
            return np.arange(self.num_dst, dtype=np.int64)
        return np.concatenate(
            [
                s + np.arange(d1 - d0, dtype=np.int64)
                for s, d0, d1 in zip(
                    self.src_splits[:-1], self.dst_splits[:-1], self.dst_splits[1:]
                )
            ]
        ) if self.num_dst else np.empty(0, dtype=np.int64)

    @property
    def dst_ids(self) -> np.ndarray:
        if self.src_splits is None:
            return self.src_ids[: self.num_dst]
        return self.src_ids[self.dst_positions]

    def memo(self, key, build):
        """``build()``, computed on the first call per ``key`` and kept.

        For data derived from the edges alone — a block is not mutated
        after construction — so every layer that shares this block (all
        but the last of a ShaDow stack) and their backward passes reuse
        one copy.  It lives and dies with the block.
        """
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def __getstate__(self):
        return {**self.__dict__, "_memo": {}}

    def validate_prefix(self) -> None:
        """Assert the destination-prefix convention (used by tests)."""
        if not np.array_equal(self.dst_ids, self.src_ids[: self.num_dst]):
            raise AssertionError("destination nodes are not a prefix of src_ids")


@dataclass
class MiniBatch:
    """All blocks for one iteration, innermost (input) layer first.

    ``blocks[0]`` consumes raw node features of ``input_ids``;
    ``blocks[-1]`` produces outputs for the ``seeds``.
    """

    seeds: np.ndarray
    blocks: list[Block]

    def __post_init__(self):
        self.seeds = np.asarray(self.seeds, dtype=np.int64)
        if not self.blocks:
            raise ValueError("MiniBatch needs at least one block")
        if not np.array_equal(self.blocks[-1].dst_ids, self.seeds):
            raise ValueError("last block's destinations must equal the seeds")

    @property
    def input_ids(self) -> np.ndarray:
        """Global node ids whose raw features feed the first layer."""
        return self.blocks[0].src_ids

    @property
    def num_layers(self) -> int:
        return len(self.blocks)

    @property
    def total_edges(self) -> int:
        """Total aggregation workload of this batch (paper Fig. 6 metric)."""
        return sum(b.num_edges for b in self.blocks)

    @property
    def total_src_nodes(self) -> int:
        return sum(b.num_src for b in self.blocks)
