"""Graph Convolutional Network (Kipf & Welling 2017; paper Eq. (1)/(3)).

Feature Aggregation: ``a_v = sum_u 1/sqrt(D(v) D(u)) * h_u``
Feature Update:      ``h_v = ReLU(a_v W + b)`` (no activation on the last layer).
"""

from __future__ import annotations

from repro.autograd.module import Module, Linear
from repro.autograd.tensor import Tensor
from repro.gnn.aggregate import block_gcn_sum
from repro.sampling.block import Block
from repro.utils.rng import derive_rng

__all__ = ["GCNConv", "GCN"]


class GCNConv(Module):
    """One GCN layer operating on a bipartite block."""

    def __init__(self, in_features: int, out_features: int, *, rng=None):
        super().__init__()
        self.linear = Linear(in_features, out_features, rng=rng)

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
            block_gcn_sum(block, h_src),
            row_splits=block.dst_splits,
            relu=relu,
            dropout=dropout,
            rng=rng,
        )


class GCN(Module):
    """Multi-layer GCN with ReLU + dropout between layers.

    ``dims`` is ``[f0, f1, ..., f_out]`` (length ``num_layers + 1``), the
    paper's Table III layer dimensions.
    """

    def __init__(self, dims: list[int], *, dropout: float = 0.5, seed: int = 0):
        super().__init__()
        from repro.gnn.models import build_layer_stack  # local import: cycle

        self.dims = list(dims)
        self.dropout = float(dropout)
        self.seed = seed
        self._layers: list[GCNConv] = build_layer_stack(
            self, dims, GCNConv, stream="gcn", seed=seed
        )

    @property
    def num_layers(self) -> int:
        return len(self._layers)

    def forward(self, blocks: list[Block], x: Tensor, *, dropout_key: tuple = ()) -> Tensor:
        """Logits for ``blocks``; in training mode layer ``i``'s dropout
        mask is drawn from ``derive_rng(seed, "dropout", *dropout_key, i)``,
        so a mask is a pure function of its key (the engine passes the
        rank-step key ``(seed, epoch, step, rank)``)."""
        if len(blocks) != self.num_layers:
            raise ValueError(f"expected {self.num_layers} blocks, got {len(blocks)}")
        *inner, last = zip(self._layers, blocks)
        h = x
        for i, (layer, block) in enumerate(inner):
            # ReLU + dropout between layers, fused into the layer's tail
            p, rng = 0.0, None
            if self.training and self.dropout > 0:
                p, rng = self.dropout, derive_rng(self.seed, "dropout", *dropout_key, i)
            h = layer(block, h, relu=True, dropout=p, rng=rng)
            # for neighbour sampling consecutive blocks line up; for
            # ShaDow they are identical, so this is a no-op check
            if len(h.data) != blocks[i + 1].num_src:
                raise ValueError(
                    "block chain mismatch: layer output rows "
                    f"{len(h.data)} != next block src {blocks[i + 1].num_src}"
                )
        layer, block = last
        return layer(block, h)
