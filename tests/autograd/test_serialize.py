"""Payload files: suffix handling, exact array round trip, metadata, model state."""

import json

import numpy as np
import pytest

from repro.autograd.serialize import load_payload, save_payload
from repro.gnn.models import build_model


class TestSuffix:
    @pytest.mark.parametrize(
        "name, resolved",
        [("p", "p.npz"), ("p.npz", "p.npz"), ("p.bin", "p.bin.npz"), ("p.v1", "p.v1.npz")],
    )
    def test_resolved_path(self, tmp_path, name, resolved):
        path = save_payload(tmp_path / name, {"a": np.zeros(1)}, {})
        assert path == tmp_path / resolved
        assert path.exists()

    @pytest.mark.parametrize("name", ["p", "p.npz", "p.bin"])
    def test_load_accepts_the_path_given_to_save(self, tmp_path, name):
        save_payload(tmp_path / name, {"a": np.arange(3)}, {"n": 3})
        arrays, meta = load_payload(tmp_path / name)
        np.testing.assert_array_equal(arrays["a"], np.arange(3))
        assert meta == {"n": 3}

    def test_accepts_str_path(self, tmp_path):
        path = save_payload(str(tmp_path / "p"), {"a": np.ones(2)}, {})
        arrays, _ = load_payload(str(path))
        np.testing.assert_array_equal(arrays["a"], np.ones(2))


class TestArrays:
    @pytest.mark.parametrize("shape", [(), (0,), (0, 3), (5,), (2, 3, 4)])
    def test_shape_round_trip(self, tmp_path, shape):
        arr = np.arange(int(np.prod(shape)), dtype=np.float32).reshape(shape)
        arrays, _ = load_payload(save_payload(tmp_path / "p", {"a": arr}, {}))
        assert arrays["a"].shape == shape
        np.testing.assert_array_equal(arrays["a"], arr)

    @pytest.mark.parametrize("dtype", [np.bool_, np.complex128, np.float16, np.int8])
    def test_uncommon_dtypes(self, tmp_path, dtype):
        arr = (np.arange(6) % 3).astype(dtype)
        arrays, _ = load_payload(save_payload(tmp_path / "p", {"a": arr}, {}))
        assert arrays["a"].dtype == np.dtype(dtype)
        np.testing.assert_array_equal(arrays["a"], arr)

    def test_float_bits_exact(self, tmp_path):
        arr = np.array([-0.0, np.inf, -np.inf, np.nan, 1e-45, 3.4e38], dtype=np.float32)
        arrays, _ = load_payload(save_payload(tmp_path / "p", {"a": arr}, {}))
        np.testing.assert_array_equal(arrays["a"].view(np.uint32), arr.view(np.uint32))

    def test_strided_input_round_trips(self, tmp_path):
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        views = {"t": base.T, "s": base[:, ::2], "f": np.asfortranarray(base)}
        arrays, _ = load_payload(save_payload(tmp_path / "p", views, {}))
        for k, v in views.items():
            np.testing.assert_array_equal(arrays[k], v)

    def test_no_arrays(self, tmp_path):
        arrays, meta = load_payload(save_payload(tmp_path / "p", {}, {"only": "meta"}))
        assert arrays == {}
        assert meta == {"only": "meta"}

    def test_keys_with_separators(self, tmp_path):
        src = {"param/layers.0.weight": np.ones((2, 2)), "param/layers.1.bias": np.zeros(2)}
        arrays, _ = load_payload(save_payload(tmp_path / "p", src, {}))
        assert set(arrays) == set(src)


class TestMeta:
    @pytest.mark.parametrize(
        "meta",
        [
            {},
            {"nested": {"a": [1, 2, {"b": None}]}, "flag": True, "x": 1.5},
            {"name": "modèle ✓", "empty": ""},
            {"big": 2**53, "neg": -7},
        ],
    )
    def test_json_round_trip(self, tmp_path, meta):
        _, got = load_payload(save_payload(tmp_path / "p", {"a": np.zeros(1)}, meta))
        assert got == meta

    def test_tuples_come_back_as_lists(self, tmp_path):
        _, got = load_payload(save_payload(tmp_path / "p", {}, {"dims": (4, 8, 2)}))
        assert got == {"dims": [4, 8, 2]}

    def test_unencodable_meta_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_payload(tmp_path / "p", {}, {"arr": np.zeros(2)})

    def test_meta_is_stored_as_utf8_json(self, tmp_path):
        path = save_payload(tmp_path / "p", {}, {"k": "v"})
        with np.load(path) as data:
            assert json.loads(data["__meta__"].tobytes().decode("utf-8")) == {"k": "v"}


class TestModelState:
    @pytest.mark.parametrize("name", ["gcn", "sage"])
    def test_state_dict_round_trip_is_bitwise(self, tmp_path, tiny_dataset, name):
        dims = tiny_dataset.layer_dims(2)
        src, dst = build_model(name, dims, seed=0), build_model(name, dims, seed=5)
        path = save_payload(tmp_path / name, dict(src.state_dict()), {"model": name})
        arrays, meta = load_payload(path)
        dst.load_state_dict(arrays)
        assert meta == {"model": name}
        for (k, a), (k2, b) in zip(src.state_dict().items(), dst.state_dict().items()):
            assert k == k2
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))
