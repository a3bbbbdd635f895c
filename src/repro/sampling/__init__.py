"""Mini-batch samplers and the node data loader.

Implements the two sampling algorithms evaluated by the paper:

* :class:`NeighborSampler` — layered neighbour sampling with per-layer
  fanouts (paper default ``[15, 10, 5]`` for a 3-layer model);
* :class:`ShadowSampler` — ShaDow-GNN style: build a localised
  ``L'``-hop sampled subgraph around the seeds (paper default fanouts
  ``[10, 5]``) and run *all* GNN layers on that subgraph.

Both produce a :class:`MiniBatch` of bipartite :class:`Block` structures
following the DGL convention that destination nodes are a prefix of the
source nodes, which lets GraphSAGE read ``h_v^{l-1}`` directly.
"""

from repro.sampling.block import Block, MiniBatch
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.shadow import ShadowSampler
from repro.sampling.dataloader import NodeDataLoader
from repro.sampling.base import Sampler, make_sampler, SAMPLER_REGISTRY

__all__ = [
    "Block",
    "MiniBatch",
    "NeighborSampler",
    "ShadowSampler",
    "NodeDataLoader",
    "Sampler",
    "make_sampler",
    "SAMPLER_REGISTRY",
]
