"""Mini-batch samplers.

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

from typing import Callable, Dict

from repro.sampling.base import Sampler
from repro.sampling.block import Block, MiniBatch
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.shadow import ShadowSampler

SAMPLER_REGISTRY: Dict[str, Callable[..., Sampler]] = {
    "neighbor": NeighborSampler,
    "shadow": ShadowSampler,
}

__all__ = [
    "Block",
    "MiniBatch",
    "NeighborSampler",
    "ShadowSampler",
    "Sampler",
    "make_sampler",
    "SAMPLER_REGISTRY",
]


def make_sampler(name: str, **kwargs) -> Sampler:
    """Instantiate a registered sampler: ``neighbor`` or ``shadow``.

    Paper-default fanouts are used when none are given: ``[15, 10, 5]``
    for neighbour sampling, ``[10, 5]`` for ShaDow.
    """
    key = name.lower()
    if key not in SAMPLER_REGISTRY:
        raise KeyError(f"unknown sampler {name!r}; known: {sorted(SAMPLER_REGISTRY)}")
    return SAMPLER_REGISTRY[key](**kwargs)
