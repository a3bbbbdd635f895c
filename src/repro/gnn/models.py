"""Model factory, shared stack builder and the paper's sampler-model pairings.

The paper evaluates two combinations: ``Neighbor-SAGE`` (NeighborSampler +
GraphSAGE) and ``ShaDow-GCN`` (ShadowSampler + GCN).  ``build_model``
creates either model from the dataset's layer dims; ``make_task`` builds
the full (sampler, model) pair by the paper's names.

:func:`build_layer_stack` is the one place the multi-layer models (GCN,
GraphSAGE) chain their conv layers over ``dims`` — each layer gets
an independent derived RNG stream and is registered as ``conv{i}`` so
``state_dict`` names stay stable.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.autograd.module import Module
from repro.gnn.gcn import GCN
from repro.gnn.sage import GraphSAGE
from repro.sampling import Sampler, make_sampler
from repro.utils.rng import derive_rng

__all__ = ["MODEL_REGISTRY", "build_model", "build_layer_stack", "TASKS", "make_task"]


def build_layer_stack(
    owner: Module,
    dims: list[int],
    layer_factory: Callable[..., Module],
    *,
    stream: str,
    seed: int,
) -> list[Module]:
    """Instantiate and register the conv layers of a stacked GNN.

    ``dims`` is ``[f0, f1, ..., f_out]`` (paper Table III); layer ``i``
    maps ``dims[i] -> dims[i+1]`` and is initialised from the derived
    stream ``(seed, stream, i)``.  Layers are set on ``owner`` as
    ``conv{i}`` (registering their parameters) and returned in order.
    """
    if len(dims) < 2:
        raise ValueError(f"dims must list input and output sizes, got {dims}")
    layers: list[Module] = []
    for i in range(len(dims) - 1):
        layer = layer_factory(dims[i], dims[i + 1], rng=derive_rng(seed, stream, i))
        setattr(owner, f"conv{i}", layer)
        layers.append(layer)
    return layers

MODEL_REGISTRY: Dict[str, Callable[..., Module]] = {
    "gcn": GCN,
    "sage": GraphSAGE,
    "graphsage": GraphSAGE,
}


def build_model(name: str, dims: list[int], *, dropout: float = 0.5, seed: int = 0) -> Module:
    """Instantiate a registered model over layer dims ``[f0, ..., f_out]``."""
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise KeyError(f"unknown model {name!r}; known: {sorted(MODEL_REGISTRY)}")
    return MODEL_REGISTRY[key](dims, dropout=dropout, seed=seed)


#: the two sampler-model combinations of the paper's evaluation
TASKS: Dict[str, tuple[str, str]] = {
    "neighbor-sage": ("neighbor", "sage"),
    "shadow-gcn": ("shadow", "gcn"),
}


def make_task(
    task: str,
    dims: list[int],
    *,
    dropout: float = 0.5,
    seed: int = 0,
    fanouts=None,
) -> tuple[Sampler, Module]:
    """Build the (sampler, model) pair for a paper task name.

    ``fanouts`` overrides the paper defaults ([15, 10, 5] for neighbour
    sampling, [10, 5] for ShaDow).
    """
    key = task.lower()
    if key not in TASKS:
        raise KeyError(f"unknown task {task!r}; known: {sorted(TASKS)}")
    sampler_name, model_name = TASKS[key]
    num_layers = len(dims) - 1
    if sampler_name == "neighbor":
        if fanouts is None:
            base = [15, 10, 5]
            fanouts = base[:num_layers] if num_layers <= 3 else base + [5] * (num_layers - 3)
        if len(fanouts) != num_layers:
            raise ValueError(
                f"neighbour fanouts {list(fanouts)} must match num_layers={num_layers}"
            )
        sampler = make_sampler("neighbor", fanouts=fanouts)
    else:
        sampler = make_sampler(
            "shadow",
            fanouts=fanouts if fanouts is not None else (10, 5),
            num_layers=num_layers,
        )
    model = build_model(model_name, dims, dropout=dropout, seed=seed)
    return sampler, model
