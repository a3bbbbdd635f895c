"""Execution-backend lookup by name and engine wiring."""

import numpy as np
import pytest

from repro.core.engine import MultiProcessEngine
from repro.exec import (
    InlineBackend,
    ProcessBackend,
    available_backends,
    get_backend,
    rank_chunk,
)
from repro.gnn.models import make_task


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ("inline", "process")

    def test_get_backend_instantiates(self):
        assert isinstance(get_backend("inline"), InlineBackend)
        assert isinstance(get_backend("process"), ProcessBackend)

    def test_get_backend_case_insensitive(self):
        assert isinstance(get_backend("INLINE"), InlineBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            get_backend("mpi")

    def test_options_forwarded(self):
        backend = get_backend("process", timeout=7.5)
        assert backend.timeout == 7.5

    def test_name_attribute_selects_the_class(self):
        assert InlineBackend.name == "inline"
        assert ProcessBackend.name == "process"
        for name in available_backends():
            assert get_backend(name).name == name

    def test_shutdown_default_is_noop(self):
        get_backend("inline").shutdown()  # must not raise


class TestRankChunk:
    def test_chunks_cover_batch_in_order(self):
        batch = np.arange(10)
        parts = [rank_chunk(batch, 3, r) for r in range(3)]
        np.testing.assert_array_equal(np.concatenate(parts), batch)

    def test_matches_array_split(self):
        batch = np.arange(7)
        for r in range(4):
            np.testing.assert_array_equal(
                rank_chunk(batch, 4, r), np.array_split(batch, 4)[r]
            )


class TestEngineWiring:
    def test_engine_resolves_backend_by_name(self, tiny_dataset):
        sampler, model = make_task(
            "neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5]
        )
        eng = MultiProcessEngine(
            tiny_dataset, sampler, model, num_processes=2, global_batch_size=64,
            backend="process",
        )
        assert eng.backend == "process"
        assert isinstance(eng._backend, ProcessBackend)
        eng.shutdown()

    def test_engine_rejects_short_bindings(self, tiny_dataset):
        sampler, model = make_task(
            "neighbor-sage", tiny_dataset.layer_dims(2), seed=0, fanouts=[5, 5]
        )
        with pytest.raises(ValueError, match="bindings"):
            MultiProcessEngine(
                tiny_dataset, sampler, model, num_processes=2, global_batch_size=64,
                bindings=[None],
            )
