"""ModelSnapshot capture/save/load round-trips across models and dtypes."""

import numpy as np
import pytest

from repro.autograd.serialize import load_payload, save_payload
from repro.gnn.models import build_model
from repro.sampling import make_sampler
from repro.serve.snapshot import ModelSnapshot


def snapshot_for(model_name, sampler_name, dims, *, dropout=0.5, seed=3):
    model = build_model(model_name, dims, dropout=dropout, seed=seed)
    if sampler_name == "neighbor":
        sampler = make_sampler("neighbor", fanouts=[4] * (len(dims) - 1))
    else:
        sampler = make_sampler("shadow", fanouts=(3, 2), num_layers=len(dims) - 1)
    return model, sampler, ModelSnapshot.capture(model, sampler, dataset_name="toy")


class TestCapture:
    @pytest.mark.parametrize("model_name", ["gcn", "sage"])
    def test_capture_records_config_and_weights(self, model_name):
        dims = [12, 8, 5]
        model, _, snap = snapshot_for(model_name, "neighbor", dims)
        assert snap.dims == dims
        assert snap.dropout == 0.5
        assert snap.seed == 3
        assert snap.out_dim == 5
        assert snap.num_parameters == model.num_parameters()
        for k, v in model.state_dict().items():
            np.testing.assert_array_equal(snap.state[k], v)

    def test_capture_is_a_copy(self):
        model, _, snap = snapshot_for("gcn", "neighbor", [6, 4, 3])
        before = {k: v.copy() for k, v in snap.state.items()}
        for p in model.parameters():
            p.data = p.data + 1.0
        for k in before:
            np.testing.assert_array_equal(snap.state[k], before[k])

    def test_sampler_config_round_trips(self):
        _, sampler, snap = snapshot_for("gcn", "shadow", [6, 4, 3])
        rebuilt = snap.build_sampler()
        assert type(rebuilt) is type(sampler)
        assert list(rebuilt.fanouts) == list(sampler.fanouts)
        assert rebuilt.num_layers == sampler.num_layers

    def test_unregistered_model_rejected(self):
        from repro.autograd.module import Linear

        sampler = make_sampler("neighbor", fanouts=[4])
        with pytest.raises(ValueError, match="not a registered model"):
            ModelSnapshot.capture(Linear(4, 2), sampler)


class TestFileRoundTrip:
    @pytest.mark.parametrize("model_name", ["gcn", "sage"])
    @pytest.mark.parametrize("sampler_name", ["neighbor", "shadow"])
    def test_save_load_round_trip(self, tmp_path, model_name, sampler_name):
        dims = [10, 6, 4]
        model, _, snap = snapshot_for(model_name, sampler_name, dims, dropout=0.25)
        path = snap.save(tmp_path / f"{model_name}-{sampler_name}")
        loaded = ModelSnapshot.load(path)
        assert loaded.model_name == snap.model_name
        assert loaded.dims == dims
        assert loaded.dropout == 0.25
        assert loaded.sampler_name == snap.sampler_name
        assert loaded.dataset_name == "toy"
        assert set(loaded.state) == set(snap.state)
        for k in snap.state:
            assert loaded.state[k].dtype == snap.state[k].dtype
            np.testing.assert_array_equal(loaded.state[k], snap.state[k])
        # the rebuilt model carries the exact weights
        rebuilt = loaded.build_model()
        for k, v in model.state_dict().items():
            np.testing.assert_array_equal(rebuilt.state_dict()[k], v)

    def test_suffixless_path_round_trips(self, tmp_path):
        """Loading with the exact path given to save() must work even
        though save() appends the .npz suffix."""
        _, _, snap = snapshot_for("gcn", "neighbor", [6, 4, 3])
        raw = tmp_path / "model"  # no suffix; save writes model.npz
        snap.save(raw)
        loaded = ModelSnapshot.load(raw)
        assert loaded.dims == snap.dims

    def test_rejects_future_format(self, tmp_path):
        path = save_payload(tmp_path / "bad", {"param/x": np.zeros(2)}, {"format": 99})
        with pytest.raises(ValueError, match="unsupported snapshot format"):
            ModelSnapshot.load(path)


class TestPayloadDtypes:
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int64, np.int32, np.uint8]
    )
    def test_payload_preserves_dtype_and_values(self, tmp_path, dtype):
        arr = (np.arange(12).reshape(3, 4) * 3).astype(dtype)
        path = save_payload(tmp_path / "p", {"a": arr}, {"k": [1, 2], "s": "x"})
        arrays, meta = load_payload(path)
        assert arrays["a"].dtype == np.dtype(dtype)
        np.testing.assert_array_equal(arrays["a"], arr)
        assert meta == {"k": [1, 2], "s": "x"}

    def test_meta_key_reserved(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_payload(tmp_path / "p", {"__meta__": np.zeros(1)}, {})

    def test_non_payload_file_rejected(self, tmp_path):
        p = tmp_path / "plain.npz"
        np.savez(p, a=np.zeros(3))
        with pytest.raises(ValueError, match="missing"):
            load_payload(p)
