"""Configuration search: the design space and the baseline search
algorithms ARGO's auto-tuner is compared against (paper Sec. VI-D).

* :class:`ConfigSpace` — every valid ``(n_processes, sampling_cores,
  training_cores)`` triple on a platform;
* :class:`ExhaustiveSearch` — the oracle (726-point sweep on 112 cores);
* :class:`RandomSearch` — uniform random baseline;
* :class:`SimulatedAnnealing` — the paper's random-search baseline;
* :func:`default_config` — the library CPU-guideline static setup.

Every space here describes a *training* configuration, which is what
the paper's tuner claim is about.  Serving knobs are set by hand; the
serving report scores a run with :func:`repro.serve.slo_objective`.
"""

from repro.tuning.space import BackendSpace, ConfigSpace
from repro.tuning.search import Searcher, SearchResult, ExhaustiveSearch, RandomSearch
from repro.tuning.anneal import SimulatedAnnealing
from repro.tuning.pruning import PruningSearch
from repro.tuning.defaults import (
    DEFAULT_QUEUE_DEPTH,
    QUEUE_DEPTH_CHOICES,
    default_backend_space,
    default_config,
)

__all__ = [
    "BackendSpace",
    "ConfigSpace",
    "Searcher",
    "SearchResult",
    "ExhaustiveSearch",
    "RandomSearch",
    "SimulatedAnnealing",
    "PruningSearch",
    "default_config",
    "default_backend_space",
    "DEFAULT_QUEUE_DEPTH",
    "QUEUE_DEPTH_CHOICES",
]
