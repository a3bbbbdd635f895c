"""RuntimeConfig record."""

import pytest

from repro.core.config import RuntimeConfig


class TestRuntimeConfig:
    def test_fields_and_derived(self):
        cfg = RuntimeConfig(4, 2, 6)
        assert cfg.cores_per_process == 8
        assert cfg.total_cores == 32

    def test_tuple_roundtrip(self):
        cfg = RuntimeConfig.from_tuple((2, 3, 5))
        assert cfg.as_tuple() == (2, 3, 5)

    def test_frozen(self):
        cfg = RuntimeConfig(1, 1, 1)
        with pytest.raises(Exception):
            cfg.num_processes = 2

    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            RuntimeConfig(*bad)

    def test_str(self):
        assert str(RuntimeConfig(2, 3, 5)) == "(n=2, samp=3, train=5)"


class TestBackendField:
    def test_defaults_to_inline(self):
        assert RuntimeConfig(1, 1, 1).backend == "inline"

    def test_accepts_registered_backends(self):
        for b in ("inline", "process"):
            assert RuntimeConfig(2, 1, 1, backend=b).backend == b

    def test_rejects_unknown_backend(self):
        for b in ("mpi", "thread"):
            with pytest.raises(ValueError, match="backend"):
                RuntimeConfig(1, 1, 1, backend=b)

    def test_from_tuple_four_wide(self):
        cfg = RuntimeConfig.from_tuple((2, 3, 5, "process"))
        assert cfg.backend == "process"
        assert cfg.as_tuple() == (2, 3, 5)  # numeric triple unchanged

    def test_str_shows_non_default_backend(self):
        assert "backend=process" in str(RuntimeConfig(2, 3, 5, backend="process"))
        assert "backend" not in str(RuntimeConfig(2, 3, 5))

    def test_backend_name_normalised_like_get_backend(self):
        assert RuntimeConfig(1, 1, 1, backend="Process").backend == "process"


class TestPrefetchFields:
    def test_defaults_off(self):
        cfg = RuntimeConfig(2, 2, 4)
        assert cfg.prefetch is False
        assert cfg.queue_depth == 2

    def test_prefetch_coerced_to_bool(self):
        assert RuntimeConfig(1, 1, 1, prefetch=1).prefetch is True

    def test_queue_depth_validated(self):
        with pytest.raises(ValueError):
            RuntimeConfig(1, 1, 1, queue_depth=0)

    def test_str_mentions_prefetch_only_when_on(self):
        assert "prefetch" not in str(RuntimeConfig(2, 3, 5))
        assert "prefetch=q4" in str(RuntimeConfig(2, 3, 5, prefetch=True, queue_depth=4))

    def test_tuple_roundtrip_ignores_prefetch(self):
        cfg = RuntimeConfig(2, 3, 5, prefetch=True)
        assert cfg.as_tuple() == (2, 3, 5)
