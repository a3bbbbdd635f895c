"""DeltaLog shared-memory transport and the store's live-graph surface.

A ``DeltaLog`` is the wire format of streaming graph updates: each
fragment is one immutable ShmArena published by the parent, attached
lazily (and exactly once) by workers via ``sync``.  The same close/unlink
guarantees as every other arena apply — tests here assert the lifecycle
and that ``SharedGraphStore`` round-trips deltas through its spec.
"""

import os

import numpy as np
import pytest

from repro.graph.delta import DeltaFragment, GraphDelta, LayeredCSR
from repro.graph.shm import SharedGraphStore
from repro.shm.arena import DeltaLog
from repro.utils.rng import derive_rng


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


has_dev_shm = os.path.isdir("/dev/shm")


def edge_delta(num_nodes, k=8, seed=0):
    rng = derive_rng(seed, "delta-log-test")
    return GraphDelta(
        src=rng.integers(0, num_nodes, size=k).astype(np.int64),
        dst=rng.integers(0, num_nodes, size=k).astype(np.int64),
    )


def fragment_arrays(num_nodes=32, seed=0):
    frag = DeltaFragment.from_delta(
        edge_delta(num_nodes, seed=seed), num_nodes=num_nodes, feature_dim=3
    )
    return frag.to_arrays()


class TestDeltaLog:
    def test_append_and_read_back(self):
        log = DeltaLog()
        try:
            arrays = fragment_arrays()
            log.append(arrays)
            assert len(log) == 1
            got = log.arrays(0)
            for key, want in arrays.items():
                np.testing.assert_array_equal(got[key], want)
        finally:
            log.unlink()

    def test_sync_attaches_only_new_fragments(self):
        owner = DeltaLog()
        follower = DeltaLog()
        try:
            owner.append(fragment_arrays(seed=0))
            assert follower.sync(owner.specs) == 1
            owner.append(fragment_arrays(seed=1))
            # second sync sees one unseen fragment, not two
            assert follower.sync(owner.specs) == 1
            assert len(follower) == 2
            np.testing.assert_array_equal(
                follower.arrays(1)["indices"], owner.arrays(1)["indices"]
            )
        finally:
            follower.close()
            owner.unlink()

    def test_sync_rejects_shrinking_spec_list(self):
        owner = DeltaLog()
        follower = DeltaLog()
        try:
            owner.append(fragment_arrays(seed=0))
            owner.append(fragment_arrays(seed=1))
            follower.sync(owner.specs)
            with pytest.raises(ValueError, match="shrank"):
                follower.sync(owner.specs[:1])
        finally:
            follower.close()
            owner.unlink()

    def test_sync_takes_only_the_newest_specs(self):
        # a pool announcement lists just the fragments published since the
        # last one; specs[i] is fragment first + i
        owner = DeltaLog()
        follower = DeltaLog()
        try:
            for seed in range(3):
                owner.append(fragment_arrays(seed=seed))
                assert follower.sync(owner.specs[-1:], first=seed) == 1
            assert len(follower) == 3
            # an overlapping list maps only what is unseen
            owner.append(fragment_arrays(seed=3))
            assert follower.sync(owner.specs[2:], first=2) == 1
            assert follower.sync(owner.specs[3:], first=3) == 0
            for i in range(4):
                np.testing.assert_array_equal(
                    follower.arrays(i)["indices"], owner.arrays(i)["indices"]
                )
        finally:
            follower.close()
            owner.unlink()

    def test_sync_rejects_a_gap(self):
        owner = DeltaLog()
        follower = DeltaLog()
        try:
            owner.append(fragment_arrays(seed=0))
            owner.append(fragment_arrays(seed=1))
            with pytest.raises(ValueError, match="gap"):
                follower.sync(owner.specs[-1:], first=1)
            assert len(follower) == 0
        finally:
            follower.close()
            owner.unlink()

    @pytest.mark.skipif(not has_dev_shm, reason="no /dev/shm to inspect")
    def test_unlink_frees_every_fragment(self):
        log = DeltaLog()
        log.append(fragment_arrays(seed=0))
        log.append(fragment_arrays(seed=1))
        names = [spec.shm_name for frag in log.specs for spec in frag.values()]
        assert all(_segment_exists(n) for n in names)
        log.unlink()
        assert not any(_segment_exists(n) for n in names)

    def test_attached_close_does_not_free(self):
        owner = DeltaLog()
        follower = DeltaLog()
        try:
            owner.append(fragment_arrays())
            follower.sync(owner.specs)
            follower.unlink()  # attached side: detach only
            if has_dev_shm:
                names = [spec.shm_name for frag in owner.specs for spec in frag.values()]
                assert all(_segment_exists(n) for n in names)
        finally:
            owner.unlink()


class TestStoreDeltas:
    def test_apply_delta_advances_generation(self, tiny_dataset):
        with SharedGraphStore.from_dataset(tiny_dataset) as store:
            assert store.graph_generation == 0
            store.apply_delta(edge_delta(store.graph.num_nodes))
            assert store.graph_generation == 1
            assert isinstance(store.graph, LayeredCSR)
            assert store.graph.generation == 1

    def test_attach_replays_published_deltas(self, tiny_dataset):
        with SharedGraphStore.from_dataset(tiny_dataset) as store:
            store.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=1))
            attached = SharedGraphStore.attach(store.spec)
            try:
                assert attached.graph_generation == 1
                np.testing.assert_array_equal(
                    attached.graph.in_degree(), store.graph.in_degree()
                )
            finally:
                attached.close()

    def test_sync_deltas_catches_up_live_follower(self, tiny_dataset):
        with SharedGraphStore.from_dataset(tiny_dataset) as store:
            attached = SharedGraphStore.attach(store.spec)
            try:
                store.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=2))
                assert attached.graph_generation == 0  # not yet synced
                assert attached.sync_deltas(store.delta_specs) == 1
                assert attached.graph_generation == 1
                np.testing.assert_array_equal(
                    attached.graph.in_degree(), store.graph.in_degree()
                )
                store.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=4))
                assert attached.sync_deltas(store.delta_specs[-1:], first=1) == 1
                assert attached.graph_generation == 2
                np.testing.assert_array_equal(
                    attached.graph.in_degree(), store.graph.in_degree()
                )
            finally:
                attached.close()

    def test_new_nodes_extend_features(self, tiny_dataset):
        with SharedGraphStore.from_dataset(tiny_dataset) as store:
            n = tiny_dataset.num_nodes
            dim = tiny_dataset.features.shape[1]
            rng = derive_rng(7, "delta-log-newnode")
            delta = GraphDelta(
                src=np.array([0, 1], dtype=np.int64),
                dst=np.array([n, n], dtype=np.int64),
                features=rng.standard_normal((1, dim)).astype(
                    tiny_dataset.features.dtype
                ),
                labels=np.zeros(1, dtype=tiny_dataset.labels.dtype),
            )
            store.apply_delta(delta)
            assert store.total_nodes == n + 1
            full = store.full_features()
            assert full.shape == (n + 1, dim)
            np.testing.assert_array_equal(full[:n], store.features)
            assert store.full_labels().shape == (n + 1,)

    @pytest.mark.skipif(not has_dev_shm, reason="no /dev/shm to inspect")
    def test_unlink_frees_delta_segments_too(self, tiny_dataset):
        store = SharedGraphStore.from_dataset(tiny_dataset)
        store.apply_delta(edge_delta(tiny_dataset.num_nodes, seed=3))
        names = [
            spec.shm_name for frag in store.delta_specs for spec in frag.values()
        ]
        assert all(_segment_exists(n) for n in names)
        store.unlink()
        assert not any(_segment_exists(n) for n in names)
