"""repro — reproduction of ARGO (IPDPS 2024).

ARGO is a runtime system that makes mini-batch GNN training scale on
multi-core CPUs via multi-processing + core binding, with an online
Bayesian-optimization auto-tuner choosing the configuration.  This
package reimplements the complete system and every substrate it needs
(graphs, samplers, GNN models with autograd, DDP, the platform model and
the BayesOpt engine) in pure numpy — see DESIGN.md for the inventory and
EXPERIMENTS.md for the paper-vs-measured record.

Quick start::

    from repro import (
        load_dataset, make_task, ConfigSpace, ICE_LAKE_8380H, ARGO,
        MultiProcessEngine,
    )

    ds = load_dataset("ogbn-products", seed=0)
    sampler, model = make_task("neighbor-sage", ds.layer_dims(3), seed=0)
    engine = MultiProcessEngine(ds, sampler, model, num_processes=4)
    engine.train(num_epochs=5, eval_every=1)
"""

from repro.graph import load_dataset, list_datasets, DATASET_REGISTRY, CSRGraph
from repro.gnn import GCN, GraphSAGE, build_model
from repro.gnn.models import make_task, TASKS
from repro.sampling import NeighborSampler, ShadowSampler, make_sampler
from repro.platform import (
    PlatformSpec,
    ICE_LAKE_8380H,
    SAPPHIRE_RAPIDS_6430L,
    PLATFORMS,
    LibraryProfile,
    DGL,
    PYG,
    LIBRARIES,
    CostModel,
    SimulatedRuntime,
    CoreBinder,
)
from repro.workload import WorkloadModel, measure_workload
from repro.exec import ExecutionBackend, available_backends, get_backend
from repro.pipeline import OrderedPrefetcher
from repro.tuning import (
    BackendSpace,
    ConfigSpace,
    ExhaustiveSearch,
    RandomSearch,
    SimulatedAnnealing,
    default_config,
)
from repro.bayesopt import BayesianOptimizer, GaussianProcessRegressor
from repro.core import (
    ARGO,
    RuntimeConfig,
    MultiProcessEngine,
    OnlineAutoTuner,
    make_train_fn,
    evaluate_accuracy,
)

__version__ = "1.0.0"

__all__ = [
    "load_dataset",
    "list_datasets",
    "DATASET_REGISTRY",
    "CSRGraph",
    "GCN",
    "GraphSAGE",
    "build_model",
    "make_task",
    "TASKS",
    "NeighborSampler",
    "ShadowSampler",
    "OrderedPrefetcher",
    "make_sampler",
    "PlatformSpec",
    "ICE_LAKE_8380H",
    "SAPPHIRE_RAPIDS_6430L",
    "PLATFORMS",
    "LibraryProfile",
    "DGL",
    "PYG",
    "LIBRARIES",
    "CostModel",
    "SimulatedRuntime",
    "CoreBinder",
    "WorkloadModel",
    "measure_workload",
    "ExecutionBackend",
    "available_backends",
    "get_backend",
    "BackendSpace",
    "ConfigSpace",
    "ExhaustiveSearch",
    "RandomSearch",
    "SimulatedAnnealing",
    "default_config",
    "BayesianOptimizer",
    "GaussianProcessRegressor",
    "ARGO",
    "RuntimeConfig",
    "MultiProcessEngine",
    "OnlineAutoTuner",
    "make_train_fn",
    "evaluate_accuracy",
    "__version__",
]
