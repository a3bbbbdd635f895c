"""Dataset registry and synthetic instantiation."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.graph.build import from_edge_index
from repro.graph.datasets import (
    DATASET_REGISTRY,
    DatasetSpec,
    _planted_features,
    _planted_labels,
    list_datasets,
    load_dataset,
)
from repro.graph.generators import powerlaw_graph, rmat_edges
from repro.utils.rng import derive_rng


class TestRegistry:
    def test_all_paper_datasets_present(self):
        names = list_datasets()
        assert names == ["flickr", "reddit", "ogbn-products", "ogbn-papers100m"]

    def test_paper_table3_statistics(self):
        spec = DATASET_REGISTRY["ogbn-products"]
        assert spec.paper_num_nodes == 2_449_029
        assert spec.paper_num_edges == 61_859_140
        assert spec.feature_dim == 100
        assert spec.num_classes == 47

    def test_size_ordering_preserved(self):
        sizes = [DATASET_REGISTRY[n].local_num_nodes for n in list_datasets()]
        assert sizes == sorted(sizes)

    def test_avg_degree(self):
        spec = DATASET_REGISTRY["reddit"]
        assert spec.avg_degree == pytest.approx(11_606_919 / 232_965)

    def test_scale_factor(self):
        spec = DATASET_REGISTRY["flickr"]
        assert spec.paper_scale_factor == pytest.approx(89_250 / 4096)


class TestLoadDataset:
    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("citeseer")

    def test_case_insensitive(self):
        ds = load_dataset("FLICKR", seed=0, scale_override=8)
        assert ds.name == "flickr"

    def test_shapes_consistent(self, tiny_dataset):
        ds = tiny_dataset
        n = ds.num_nodes
        assert ds.features.shape == (n, ds.spec.feature_dim)
        assert ds.labels.shape == (n,)
        assert ds.labels.min() >= 0
        assert ds.labels.max() < ds.spec.num_classes

    def test_split_partitions_nodes(self, tiny_dataset):
        ds = tiny_dataset
        all_idx = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
        assert len(all_idx) == ds.num_nodes
        assert len(np.unique(all_idx)) == ds.num_nodes

    def test_deterministic_in_seed(self):
        a = load_dataset("flickr", seed=3, scale_override=8)
        b = load_dataset("flickr", seed=3, scale_override=8)
        assert a.graph == b.graph
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_seed_changes_instance(self):
        a = load_dataset("flickr", seed=3, scale_override=8)
        b = load_dataset("flickr", seed=4, scale_override=8)
        assert not np.array_equal(a.features, b.features)

    def test_scale_override(self):
        ds = load_dataset("reddit", seed=0, scale_override=9)
        assert ds.num_nodes == 512

    def test_layer_dims_paper_shape(self, tiny_dataset):
        dims = tiny_dataset.layer_dims(3)
        assert dims == [100, 128, 128, 47]

    def test_layer_dims_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.layer_dims(0)

    def test_labels_graph_correlated(self, tiny_dataset):
        """Planted labels must beat chance when predicted from neighbours —
        otherwise the convergence experiment is untrainable."""
        ds = tiny_dataset
        g = ds.graph
        hits, total = 0, 0
        for v in range(0, ds.num_nodes, 7):
            nb = g.neighbors(v)
            if nb.size == 0:
                continue
            counts = np.bincount(ds.labels[nb], minlength=ds.spec.num_classes)
            hits += counts.argmax() == ds.labels[v]
            total += 1
        assert hits / total > 2.0 / ds.spec.num_classes


def _digest(arr: np.ndarray) -> str:
    """sha256 prefix of an array's bytes (float32 hashed as its uint32 bits)."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.float32:
        arr = arr.view(np.uint32)
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


_DATASET_FIELDS = ("indptr", "indices", "features", "labels", "train_idx", "val_idx", "test_idx")

#: (name, seed, scale_override) -> per-array digests, in _DATASET_FIELDS order.
#: Captured from the original build (np.add.at label vote, lexsort CSR,
#: one-shot feature noise); any build rewrite must reproduce them exactly,
#: or every workload silently trains and serves on a different graph.
GOLDEN_DATASETS = {
    ("flickr", 0, None): ("2e5e8b4c31888281", "17350d5c25a621cf", "249f9a782ee4764a",
                          "f035e8d46a9f87d4", "37b7785594431c23", "57a31e1a35f7fea2",
                          "9ba867070898b446"),
    ("reddit", 0, None): ("29777c8d1eea6605", "e4a33f984307991a", "aa4635e5c2f75b54",
                          "fa2f85ba7da1528f", "e6aa715282d58a22", "254982aa69f6d320",
                          "13221da7472e54f0"),
    ("ogbn-products", 0, None): ("2051201b9e18968a", "fb3f9d8619377bd0", "50e37296f5661111",
                                 "1e723d4630ebfb67", "079378bb65802c0c", "77333a92218d3790",
                                 "4bb824c879a2a124"),
    ("ogbn-papers100m", 0, None): ("1c6aa43fb29a42eb", "629ef2926a7b5148", "ad361a26e808ab32",
                                   "74698ae365eefc71", "811897114f246037", "f8b0f44ccee23b3d",
                                   "00b638448b7c0983"),
    ("ogbn-products", 1, 9): ("11a4aae5d13e32e7", "8bd74b03b45d7259", "ca333e418c6155fb",
                              "1675b834e3c59773", "cbec24d92c4e2127", "338006af2b62c078",
                              "0b097287980e368b"),
    ("ogbn-products", 1, 11): ("2b4aea47d63a6b87", "2708c424e8ee0bdb", "de65f2c621b1c064",
                               "bc6cdd203f511a2a", "c4da41344dea4e77", "7c7e6f7fa42752c8",
                               "ac12b5c056b2bbc6"),
    ("ogbn-products", 1, 13): ("77ef502a2f207c10", "8b456b5740ae6c72", "f9c423d4ee8621e2",
                               "7a37649b9702fb34", "4bedd5300b441ca4", "069c50bca7076c18",
                               "6e893393ee85a89a"),
}


class TestGoldenBits:
    """Dataset builds reproduce the original bits, not just themselves."""

    @pytest.mark.parametrize("case", list(GOLDEN_DATASETS), ids=str)
    def test_dataset_arrays(self, case):
        name, seed, scale = case
        ds = load_dataset(name, seed=seed, scale_override=scale)
        arrays = (ds.graph.indptr, ds.graph.indices, ds.features, ds.labels,
                  ds.train_idx, ds.val_idx, ds.test_idx)
        got = dict(zip(_DATASET_FIELDS, map(_digest, arrays)))
        assert got == dict(zip(_DATASET_FIELDS, GOLDEN_DATASETS[case]))

    def test_covers_every_registered_dataset(self):
        assert {name for name, _, scale in GOLDEN_DATASETS if scale is None} == set(list_datasets())

    def test_products_reverse(self):
        # undirected, so its out-edge CSR is its in-edge CSR
        rev = load_dataset("ogbn-products", seed=0).graph.reverse()
        assert (_digest(rev.indptr), _digest(rev.indices)) == (
            "2051201b9e18968a", "fb3f9d8619377bd0")

    def test_directed_rmat_with_duplicates_and_reverse(self):
        src, dst = rmat_edges(12, 8.0, rng=derive_rng(0, "golden", "rmat"))
        assert (_digest(src), _digest(dst)) == ("47b93ad8ef5430e8", "b0c583ecd26d4e4d")
        g = from_edge_index(src, dst, 1 << 12, coalesce=False)
        rev = g.reverse()
        assert [_digest(a) for a in (g.indptr, g.indices, rev.indptr, rev.indices)] == [
            "d1f8442f8f94d6f1", "99d2b6983313ffe2", "9a3e29a8f67fc5ea", "0fb84bff18dad556"]


def planted_labels_scatter(graph, num_classes, rng):
    """The original label planting: one-hot rows scattered with np.add.at."""
    n = graph.num_nodes
    votes = rng.integers(0, num_classes, size=n)
    onehot = np.zeros((n, num_classes), dtype=np.float32)
    onehot[np.arange(n), votes] = 1.0
    srcs, offsets = graph.gather_neighbors(np.arange(n, dtype=np.int64))
    agg = np.zeros_like(onehot)
    dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    np.add.at(agg, dst, onehot[srcs])
    deg = np.maximum(1, np.diff(graph.indptr)).astype(np.float32)[:, None]
    smoothed = onehot + agg / deg
    return smoothed.argmax(axis=1).astype(np.int64)


def planted_features_one_shot(labels, feature_dim, num_classes, rng):
    """The original feature planting: one (N, F) noise draw."""
    centroids = rng.standard_normal((num_classes, feature_dim)).astype(np.float32)
    noise = rng.standard_normal((len(labels), feature_dim)).astype(np.float32)
    return centroids[labels] + noise


class TestPlantingOracles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("num_classes", [2, 7, 47])
    def test_labels_match_scatter(self, seed, num_classes):
        # a sparse power-law graph plus isolated nodes: zero in-degree rows
        # and heavy hubs, where vote ties and large counts both occur
        base = powerlaw_graph(300, 2.0, rng=derive_rng(seed, "graph"))
        src, dst = base.to_edge_index()
        graph = from_edge_index(src, dst, 340, coalesce=False)
        assert (graph.in_degree() == 0).any()
        want = planted_labels_scatter(graph, num_classes, derive_rng(seed, "votes"))
        rng = derive_rng(seed, "votes")
        got = _planted_labels(graph, num_classes, rng)
        np.testing.assert_array_equal(got, want)
        # the vote is the only draw: the stream continues where the oracle's does
        probe = derive_rng(seed, "votes")
        probe.integers(0, num_classes, size=graph.num_nodes)
        assert rng.random() == probe.random()

    def test_labels_on_empty_graph(self):
        graph = from_edge_index([], [], 5)
        np.testing.assert_array_equal(
            _planted_labels(graph, 3, derive_rng(0)), planted_labels_scatter(graph, 3, derive_rng(0)))

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 9000])
    def test_features_match_one_shot_draw(self, n):
        labels = derive_rng(n, "labels").integers(0, 5, size=n)
        rng_a, rng_b = derive_rng(n, "f"), derive_rng(n, "f")
        got = _planted_features(labels, 13, 5, rng_a)
        want = planted_features_one_shot(labels, 13, 5, rng_b)
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
        assert rng_a.random() == rng_b.random()


def _dataset_nbytes(ds) -> int:
    arrays = (ds.graph.indptr, ds.graph.indices, ds.features, ds.labels,
              ds.train_idx, ds.val_idx, ds.test_idx)
    return sum(a.nbytes for a in arrays)


class TestBuildMemory:
    @pytest.mark.parametrize("scale", [12, 13])
    def test_peak_within_4x_of_output(self, scale):
        """An (E x C) message array or an (N x F) float64 noise array
        coming back would put the transient peak far above what the
        dataset keeps (8.4x at scale 13 with the one-hot scatter)."""
        tracemalloc.start()
        try:
            ds = load_dataset("ogbn-products", seed=0, scale_override=scale)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * _dataset_nbytes(ds)
