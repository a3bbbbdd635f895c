"""GNN models: message-passing aggregation, GCN and GraphSAGE.

Both models follow the paper's Section II-A formulation: each layer is a
Feature Aggregation (segment sum/mean over sampled in-neighbours) followed
by a Feature Update (linear layer + ReLU).  Layers consume the bipartite
``Block`` structures emitted by the samplers in :mod:`repro.sampling`.
"""

from repro.gnn.aggregate import aggregate_sum, aggregate_mean, gcn_norm_coefficients
from repro.gnn.gcn import GCNConv, GCN
from repro.gnn.sage import SAGEConv, GraphSAGE
from repro.gnn.models import build_model, MODEL_REGISTRY

__all__ = [
    "aggregate_sum",
    "aggregate_mean",
    "gcn_norm_coefficients",
    "GCNConv",
    "GCN",
    "SAGEConv",
    "GraphSAGE",
    "build_model",
    "MODEL_REGISTRY",
]
