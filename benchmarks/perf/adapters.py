"""The one file of the ledger that imports from ``repro``.

Workloads and probes import the program's names from here only, so an
API rename in ``src/`` is a one-file fix in the benchmark.  Public names
only, top-level package first.  The checkout's own ``src/`` is put first
on ``sys.path`` so an installed copy of the package is never measured
by mistake.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
_SRC = ROOT / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"no program to measure: {_SRC / 'repro'} is missing")
sys.path.insert(0, str(_SRC))

from repro import (  # noqa: E402
    MultiProcessEngine,
    NeighborSampler,
    OnlineAutoTuner,
    OrderedPrefetcher,
    ShadowSampler,
    load_dataset,
    make_task,
)
from repro.autograd import Adam, Tensor, inference_mode  # noqa: E402
from repro.autograd.functional import cross_entropy  # noqa: E402
from repro.autograd.ops import gather_rows, matmul  # noqa: E402
from repro.bayesopt import BayesianOptimizer, GaussianProcessRegressor  # noqa: E402
from repro.distributed import ProcessCommunicator, ProcessWorld  # noqa: E402
from repro.experiments.setups import ExperimentSetup, build_runtime  # noqa: E402
from repro.gnn.aggregate import aggregate_mean  # noqa: E402
from repro.graph.delta import (  # noqa: E402
    DeltaFragment,
    GraphDelta,
    LayeredCSR,
    materialize_dataset,
    reverse_reachable,
)
from repro.graph.shm import SharedGraphStore  # noqa: E402
from repro.obs.export import chrome_trace_document  # noqa: E402
from repro.platform.profiling import profile_training_step  # noqa: E402
from repro.sampling.batch import estimate_request_costs  # noqa: E402
from repro.serve import (  # noqa: E402
    EmbeddingCache,
    InferenceEngine,
    MicroBatcher,
    ModelSnapshot,
    Request,
    predict_nodes,
)
from repro.shm.arena import BatchArena, DeltaLog, ParamStore  # noqa: E402

__all__ = [
    "ROOT",
    "Adam",
    "BatchArena",
    "BayesianOptimizer",
    "DeltaFragment",
    "DeltaLog",
    "EmbeddingCache",
    "ExperimentSetup",
    "GaussianProcessRegressor",
    "GraphDelta",
    "InferenceEngine",
    "LayeredCSR",
    "MicroBatcher",
    "ModelSnapshot",
    "MultiProcessEngine",
    "NeighborSampler",
    "OnlineAutoTuner",
    "OrderedPrefetcher",
    "ParamStore",
    "ProcessCommunicator",
    "ProcessWorld",
    "Request",
    "ShadowSampler",
    "SharedGraphStore",
    "Tensor",
    "aggregate_mean",
    "build_runtime",
    "chrome_trace_document",
    "cross_entropy",
    "estimate_request_costs",
    "gather_rows",
    "inference_mode",
    "load_dataset",
    "make_task",
    "matmul",
    "materialize_dataset",
    "predict_nodes",
    "profile_training_step",
    "reverse_reachable",
]
