"""Shared-memory arena layer: ParamStore, BatchArena, flatten helpers."""

import contextlib
import gc
import os
import pickle
import weakref

import numpy as np
import pytest

from repro.shm.arena import (
    BatchArena,
    ParamStore,
    ShmArena,
    flatten_arrays,
    unflatten_arrays,
)

has_dev_shm = os.path.isdir("/dev/shm")
needs_dev_shm = pytest.mark.skipif(not has_dev_shm, reason="no /dev/shm to inspect")


def _exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


class TestFlatten:
    def test_roundtrip_nested(self):
        obj = {
            "model": {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)},
            "optimizer": {"m": [np.ones(2), np.full(3, 2.0)], "t": 7},
            "name": "adam",
        }
        skeleton, arrays = flatten_arrays(obj)
        assert len(arrays) == 4
        back = unflatten_arrays(skeleton, arrays)
        assert back["optimizer"]["t"] == 7
        assert back["name"] == "adam"
        np.testing.assert_array_equal(back["model"]["w"], obj["model"]["w"])
        np.testing.assert_array_equal(back["optimizer"]["m"][1], obj["optimizer"]["m"][1])

    def test_skeleton_carries_no_arrays(self):
        skeleton, _ = flatten_arrays({"a": np.zeros(1000)})
        assert len(pickle.dumps(skeleton)) < 200

    def test_preserves_tuple_vs_list(self):
        skeleton, arrays = flatten_arrays((np.zeros(1), [np.ones(1)]))
        back = unflatten_arrays(skeleton, arrays)
        assert isinstance(back, tuple)
        assert isinstance(back[1], list)


def _template():
    return {
        "model": {"w": np.arange(12.0).reshape(3, 4), "b": np.zeros(4, dtype=np.float32)},
        "optimizer": {"m": [np.zeros((3, 4))], "v": [np.zeros((3, 4))], "t": 0},
    }


class TestParamStore:
    def test_publish_load_roundtrip(self):
        with ParamStore.create(_template()) as store:
            state = _template()
            state["model"]["w"] += 5.0
            state["optimizer"]["t"] = 3
            store.publish(state)
            out = store.load()
        np.testing.assert_array_equal(out["model"]["w"], state["model"]["w"])
        assert out["model"]["b"].dtype == np.float32
        assert out["optimizer"]["t"] == 3

    def test_attach_sees_published_state(self):
        with ParamStore.create(_template()) as store:
            state = _template()
            state["optimizer"]["t"] = 11
            store.publish(state)
            attached = ParamStore.attach(store.spec)
            try:
                assert attached.load()["optimizer"]["t"] == 11
                # the worker direction: attached publish, owner load
                state["optimizer"]["t"] = 12
                attached.publish(state)
                assert store.load()["optimizer"]["t"] == 12
            finally:
                attached.close()

    def test_layout_mismatch_rejected(self):
        with ParamStore.create(_template()) as store:
            bad = _template()
            bad["model"]["w"] = np.zeros((4, 4))  # wrong shape
            with pytest.raises(ValueError, match="does not match frozen"):
                store.publish(bad)
            worse = {"model": {"w": np.zeros(1)}}  # wrong arity
            with pytest.raises(ValueError, match="topology changed"):
                store.publish(worse)

    def test_attached_cannot_unlink(self):
        with ParamStore.create(_template()) as store:
            attached = ParamStore.attach(store.spec)
            with pytest.raises(RuntimeError):
                attached.unlink()
            attached.close()

    @needs_dev_shm
    def test_unlink_idempotent_and_frees_segment(self):
        store = ParamStore.create(_template())
        name = store.spec["shm_name"]
        assert _exists(name)
        store.unlink()
        store.unlink()  # double unlink is a no-op
        store.close()  # close after unlink too
        assert not _exists(name)


@contextlib.contextmanager
def _gc_disabled():
    """Automatic collection off for the block; prior garbage swept first."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class TestNoReferenceCycles:
    """Published and loaded state must die by reference count alone.

    A cycle anywhere on this path pins whole state dicts until a full
    collection, which a steady training loop almost never triggers.
    """

    def test_flatten_roundtrip_leaves_no_cyclic_garbage(self):
        with _gc_disabled():
            obj = {"model": {"w": np.zeros(4)}, "opt": [np.ones(2), (np.ones(1), 3)]}
            skeleton, arrays = flatten_arrays(obj)
            unflatten_arrays(skeleton, arrays)
            del obj, skeleton, arrays
            assert gc.collect() == 0

    def test_param_store_rounds_leave_no_cyclic_garbage(self):
        with _gc_disabled(), ParamStore.create(_template()) as store:
            for t in range(3):
                state = _template()
                state["optimizer"]["t"] = t
                store.publish(state)
                assert store.load()["optimizer"]["t"] == t
            del state
            assert gc.collect() == 0

    def test_loaded_array_dies_when_dropped(self):
        with _gc_disabled(), ParamStore.create(_template()) as store:
            out = store.load()
            ref = weakref.ref(out["model"]["w"])
            assert ref() is not None
            del out
            assert ref() is None  # checked before any collection


class TestBatchArena:
    def test_write_read_roundtrip(self):
        with BatchArena.create(num_slots=2, slot_bytes=1 << 12) as arena:
            arrays = [np.arange(10, dtype=np.int64), np.ones((3, 2), dtype=np.float32)]
            layouts = arena.write(1, arrays)
            assert layouts is not None
            out = arena.read(1, layouts)
        np.testing.assert_array_equal(out[0], arrays[0])
        np.testing.assert_array_equal(out[1], arrays[1])
        assert out[1].dtype == np.float32

    def test_oversized_bundle_reports_none(self):
        with BatchArena.create(num_slots=1, slot_bytes=64) as arena:
            assert arena.write(0, [np.zeros(1000)]) is None

    def test_slots_are_independent(self):
        with BatchArena.create(num_slots=2, slot_bytes=256) as arena:
            l0 = arena.write(0, [np.zeros(4)])
            l1 = arena.write(1, [np.ones(4)])
            np.testing.assert_array_equal(arena.read(0, l0)[0], np.zeros(4))
            np.testing.assert_array_equal(arena.read(1, l1)[0], np.ones(4))

    def test_slot_out_of_range(self):
        with BatchArena.create(num_slots=1, slot_bytes=256) as arena:
            with pytest.raises(ValueError, match="out of range"):
                arena.write(3, [np.zeros(1)])

    @needs_dev_shm
    def test_unlink_idempotent(self):
        arena = BatchArena.create(num_slots=1, slot_bytes=256)
        name = arena.spec["shm_name"]
        arena.unlink()
        arena.unlink()
        assert not _exists(name)


class TestShmArenaIdempotency:
    """The lifecycle hardening contract: double-call and GC safety."""

    def test_double_unlink_is_noop(self):
        arena = ShmArena.create({"a": np.arange(4)})
        arena.unlink()
        arena.unlink()

    def test_unlink_after_close_still_frees(self):
        arena = ShmArena.create({"a": np.arange(4)})
        names = [s.shm_name for s in arena.spec.values()]
        arena.close()
        arena.unlink()
        if has_dev_shm:
            assert not any(_exists(n) for n in names)

    def test_gc_after_unlink_is_safe(self):
        arena = ShmArena.create({"a": np.arange(4)})
        arena.unlink()
        arena.__del__()  # the GC safety net must tolerate a dead arena
        del arena
