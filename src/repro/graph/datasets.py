"""Dataset registry: synthetic stand-ins for the paper's four benchmarks.

The paper evaluates on (Table III):

======================  ===========  =============  ====  ====  ====
dataset                 #vertices    #edges         f0    f1    f2
======================  ===========  =============  ====  ====  ====
Flickr                  89,250       899,756        500   128   7
Reddit                  232,965      11,606,919     602   128   41
ogbn-products           2,449,029    61,859,140     100   128   47
ogbn-papers100M         111,059,956  1,615,685,872  128   128   172
======================  ===========  =============  ====  ====  ====

We register each with (a) its *paper-scale* statistics, used by the
platform cost model to extrapolate workload volumes, and (b) a *local
scale factor* that instantiates a laptop-sized RMAT graph with the same
average degree, feature dims and label count, on which training, sampling
and workload measurement actually run.

A loaded :class:`GNNDataset` carries node features, labels and the usual
train/val/test split.  Everything is deterministic in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.build import from_edge_index
from repro.graph.generators import rmat_edges
from repro.utils.rng import derive_rng

__all__ = ["DatasetSpec", "GNNDataset", "DATASET_REGISTRY", "load_dataset", "list_datasets"]


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of a benchmark dataset (paper-scale + local scale)."""

    name: str
    paper_num_nodes: int
    paper_num_edges: int
    feature_dim: int  # f0
    hidden_dim: int  # f1
    num_classes: int  # f2
    local_scale: int  # RMAT scale for the local synthetic instance
    #: size of the official training split at paper scale (used by the
    #: cost model to derive iterations per epoch)
    paper_train_nodes: int = 0
    train_fraction: float = 0.10
    val_fraction: float = 0.08

    @property
    def avg_degree(self) -> float:
        return self.paper_num_edges / self.paper_num_nodes

    @property
    def local_num_nodes(self) -> int:
        return 1 << self.local_scale

    @property
    def paper_scale_factor(self) -> float:
        """How many paper-scale nodes each local node represents."""
        return self.paper_num_nodes / self.local_num_nodes


@dataclass
class GNNDataset:
    """A materialised dataset: graph + features + labels + split."""

    spec: DatasetSpec
    graph: CSRGraph
    features: np.ndarray  # (N, f0) float32
    labels: np.ndarray  # (N,) int64
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def layer_dims(self, num_layers: int = 3) -> list[int]:
        """Per-layer feature widths ``[f0, f1, ..., f_out]`` (paper Table III)."""
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        return [self.spec.feature_dim] + [self.spec.hidden_dim] * (num_layers - 1) + [
            self.spec.num_classes
        ]


# Local scales chosen so everything trains in seconds: Flickr 2^12=4096
# nodes ... papers100M 2^15=32768 nodes, preserving the size ordering.
DATASET_REGISTRY: Dict[str, DatasetSpec] = {
    "flickr": DatasetSpec(
        name="flickr",
        paper_num_nodes=89_250,
        paper_num_edges=899_756,
        feature_dim=500,
        hidden_dim=128,
        num_classes=7,
        local_scale=12,
        paper_train_nodes=44_625,
    ),
    "reddit": DatasetSpec(
        name="reddit",
        paper_num_nodes=232_965,
        paper_num_edges=11_606_919,
        feature_dim=602,
        hidden_dim=128,
        num_classes=41,
        local_scale=13,
        paper_train_nodes=153_431,
    ),
    "ogbn-products": DatasetSpec(
        name="ogbn-products",
        paper_num_nodes=2_449_029,
        paper_num_edges=61_859_140,
        feature_dim=100,
        hidden_dim=128,
        num_classes=47,
        local_scale=14,
        paper_train_nodes=196_615,
    ),
    "ogbn-papers100m": DatasetSpec(
        name="ogbn-papers100M",
        paper_num_nodes=111_059_956,
        paper_num_edges=1_615_685_872,
        feature_dim=128,
        hidden_dim=128,
        num_classes=172,
        local_scale=15,
        paper_train_nodes=1_207_179,
    ),
}


def list_datasets() -> list[str]:
    """Names of all registered datasets, in paper (size) order."""
    return list(DATASET_REGISTRY)


def _planted_labels(
    graph: CSRGraph, num_classes: int, rng: np.random.Generator
) -> np.ndarray:
    """Labels with graph-correlated structure (one propagation round).

    Pure random labels would make the convergence experiment (Fig. 9)
    meaningless — no model can learn them.  We plant labels by seeding each
    node with a random class vote and letting each node adopt the majority
    class of its neighbourhood, which gives a signal that message-passing
    models can actually pick up.
    """
    n = graph.num_nodes
    votes = rng.integers(0, num_classes, size=n)
    # One round of mean-aggregation of the votes plus the self vote.  The
    # neighbour sum of 0/1 one-hot rows is the per-(node, class) count of
    # in-neighbour votes, exact in float32 below 2**24, so one bincount
    # over ``dst * C + vote`` gives the bits a one-hot scatter would.
    # Adding the self vote after the division is ``onehot + agg / deg``
    # elementwise, since ``0 + x == x`` and float addition commutes.
    in_deg = np.diff(graph.indptr)
    slot = np.repeat(np.arange(n, dtype=np.int64), in_deg)
    slot *= num_classes
    slot += votes[graph.indices]
    counts = np.bincount(slot, minlength=n * num_classes)
    del slot
    smoothed = counts.astype(np.float32).reshape(n, num_classes)
    del counts
    smoothed /= np.maximum(1, in_deg).astype(np.float32)[:, None]
    smoothed[np.arange(n), votes] += 1.0
    return smoothed.argmax(axis=1).astype(np.int64)


#: rows of noise drawn per block: ``standard_normal`` fills row-major, so
#: blocks draw the same stream as one ``(N, F)`` call
_FEATURE_BLOCK_ROWS = 4096


def _planted_features(
    labels: np.ndarray, feature_dim: int, num_classes: int, rng: np.random.Generator
) -> np.ndarray:
    """Class-conditional Gaussian features: centroid(label) + noise.

    Noise is drawn in row blocks and added in float32, so no ``(N, F)``
    float64 array is ever held.
    """
    centroids = rng.standard_normal((num_classes, feature_dim)).astype(np.float32)
    features = centroids[labels]
    for start in range(0, len(labels), _FEATURE_BLOCK_ROWS):
        block = features[start : start + _FEATURE_BLOCK_ROWS]
        block += rng.standard_normal(block.shape).astype(np.float32)
    return features


def load_dataset(name: str, *, seed: int = 0, scale_override: int | None = None) -> GNNDataset:
    """Instantiate the local synthetic version of a registered dataset.

    Parameters
    ----------
    name:
        One of :func:`list_datasets` (case-insensitive).
    seed:
        Seed controlling graph topology, features, labels and split.
    scale_override:
        Replace the registered RMAT scale (e.g. smaller graphs for tests).
    """
    key = name.lower()
    if key not in DATASET_REGISTRY:
        raise KeyError(f"unknown dataset {name!r}; known: {list_datasets()}")
    spec = DATASET_REGISTRY[key]
    if scale_override is not None:
        spec = DatasetSpec(
            **{**spec.__dict__, "local_scale": int(scale_override)}
        )
    rng = derive_rng(seed, "dataset", spec.name)
    src, dst = rmat_edges(spec.local_scale, spec.avg_degree / 2.0, rng=rng)
    graph = from_edge_index(
        src, dst, spec.local_num_nodes, undirected=True, self_loops=False
    )
    del src, dst
    labels = _planted_labels(graph, spec.num_classes, rng)
    features = _planted_features(labels, spec.feature_dim, spec.num_classes, rng)
    n = graph.num_nodes
    perm = rng.permutation(n)
    n_train = max(1, int(n * spec.train_fraction))
    n_val = max(1, int(n * spec.val_fraction))
    train_idx = np.sort(perm[:n_train]).astype(np.int64)
    val_idx = np.sort(perm[n_train : n_train + n_val]).astype(np.int64)
    test_idx = np.sort(perm[n_train + n_val :]).astype(np.int64)
    return GNNDataset(
        spec=spec,
        graph=graph,
        features=features,
        labels=labels,
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
    )
