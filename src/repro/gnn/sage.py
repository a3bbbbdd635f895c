"""GraphSAGE (Hamilton et al. 2017; paper Eq. (2)/(3)).

Feature Aggregation: ``a_v = h_v || mean(h_u, u in N(v))`` (concat of the
node's own previous-layer feature with the neighbour mean).
Feature Update:      ``h_v = ReLU(a_v W + b)``.

The destination-prefix convention of :class:`repro.sampling.block.Block`
provides ``h_v^{l-1}`` as ``h_src[:num_dst]``.  The aggregation is one
tape node (:func:`repro.gnn.aggregate.block_concat_mean`) that writes both
halves of ``a_v`` into one buffer, so neither half, nor the neighbour
sum it was scaled from, is kept for the backward pass.
"""

from __future__ import annotations

from repro.autograd.module import Module, Linear
from repro.autograd.tensor import Tensor
from repro.gnn.aggregate import block_concat_mean
from repro.sampling.block import Block
from repro.utils.rng import derive_rng

__all__ = ["SAGEConv", "GraphSAGE"]


class SAGEConv(Module):
    """One GraphSAGE layer (mean aggregator, concat combine)."""

    def __init__(self, in_features: int, out_features: int, *, rng=None):
        super().__init__()
        # concat doubles the input width
        self.linear = Linear(2 * in_features, out_features, rng=rng)

    def forward(
        self, block: Block, h_src: Tensor, *, relu: bool = False, dropout: float = 0.0, rng=None
    ) -> Tensor:
        """One layer over ``block``; ``relu``/``dropout``/``rng`` are the
        fused tail of :meth:`repro.autograd.module.Linear.forward`."""
        if len(h_src.data) != block.num_src:
            raise ValueError(
                f"feature rows ({len(h_src.data)}) != block src nodes ({block.num_src})"
            )
        # merged blocks compute the affine map per request segment so
        # each request keeps its solo forward's exact BLAS geometry
        return self.linear(
            block_concat_mean(block, h_src),
            row_splits=block.dst_splits,
            relu=relu,
            dropout=dropout,
            rng=rng,
        )


class GraphSAGE(Module):
    """Multi-layer GraphSAGE with ReLU + dropout between layers."""

    #: the dropout-stream counter must follow the weights across
    #: execution backends (see Module.extra_state_dict)
    EXTRA_STATE_ATTRS = ("_dropout_calls",)

    def __init__(self, dims: list[int], *, dropout: float = 0.5, seed: int = 0):
        super().__init__()
        from repro.gnn.models import build_layer_stack  # local import: cycle

        self.dims = list(dims)
        self.dropout = float(dropout)
        self.seed = seed
        self._layers: list[SAGEConv] = build_layer_stack(
            self, dims, SAGEConv, stream="sage", seed=seed
        )
        self._dropout_calls = 0

    def __setattr__(self, name, value):
        if name in ("_layers", "_dropout_calls"):
            object.__setattr__(self, name, value)
        else:
            super().__setattr__(name, value)

    @property
    def num_layers(self) -> int:
        return len(self._layers)

    def forward(self, blocks: list[Block], x: Tensor) -> Tensor:
        if len(blocks) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} blocks, got {len(blocks)}")
        *inner, last = zip(self._layers, blocks)
        h = x
        for i, (layer, block) in enumerate(inner):
            # ReLU + dropout between layers, fused into the layer's tail
            p, rng = 0.0, None
            if self.training and self.dropout > 0:
                self._dropout_calls += 1
                p, rng = self.dropout, derive_rng(self.seed, "dropout", self._dropout_calls)
            h = layer(block, h, relu=True, dropout=p, rng=rng)
            if len(h.data) != blocks[i + 1].num_src:
                raise ValueError(
                    "block chain mismatch: layer output rows "
                    f"{len(h.data)} != next block src {blocks[i + 1].num_src}"
                )
        layer, block = last
        return layer(block, h)
