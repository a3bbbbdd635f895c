"""Core binding and topology."""

import pytest

from repro.platform.corebind import CoreBinder
from repro.platform.spec import ICE_LAKE_8380H, SAPPHIRE_RAPIDS_6430L
from repro.platform.topology import CoreSet, socket_of_core


class TestTopology:
    def test_socket_of_core(self):
        assert socket_of_core(0, ICE_LAKE_8380H) == 0
        assert socket_of_core(27, ICE_LAKE_8380H) == 0
        assert socket_of_core(28, ICE_LAKE_8380H) == 1
        assert socket_of_core(111, ICE_LAKE_8380H) == 3

    def test_socket_of_core_range(self):
        with pytest.raises(ValueError):
            socket_of_core(112, ICE_LAKE_8380H)

    def test_coreset_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CoreSet((1, 1), ICE_LAKE_8380H)

    def test_coreset_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CoreSet((200,), ICE_LAKE_8380H)

    def test_sockets_spanned(self):
        cs = CoreSet((0, 1, 28), ICE_LAKE_8380H)
        assert cs.sockets_spanned == [0, 1]
        assert not cs.is_numa_local

    def test_remote_fraction(self):
        cs = CoreSet((0, 1, 28, 29), ICE_LAKE_8380H)
        assert cs.remote_fraction(home_socket=0) == pytest.approx(0.5)

    def test_remote_fraction_majority_home(self):
        cs = CoreSet((0, 1, 2, 28), ICE_LAKE_8380H)
        assert cs.remote_fraction() == pytest.approx(0.25)

    def test_remote_fraction_empty(self):
        assert CoreSet((), ICE_LAKE_8380H).remote_fraction() == 0.0


class TestCoreBinder:
    def test_bind_partitions_cores(self):
        binder = CoreBinder(SAPPHIRE_RAPIDS_6430L)
        bindings = binder.bind(4, 2, 6)
        all_cores = [c for b in bindings for c in b.all_cores.cores]
        assert len(all_cores) == len(set(all_cores)) == 32

    def test_split_sizes(self):
        binder = CoreBinder(SAPPHIRE_RAPIDS_6430L)
        bindings = binder.bind(2, 3, 5)
        for b in bindings:
            assert len(b.sampling_cores) == 3
            assert len(b.training_cores) == 5

    def test_compact_packing_is_numa_local(self):
        """With few processes each binding stays within one socket."""
        binder = CoreBinder(ICE_LAKE_8380H)
        bindings = binder.bind(4, 4, 24)  # 28 cores per process = 1 socket
        for b in bindings:
            assert b.all_cores.is_numa_local

    def test_oversubscription_rejected(self):
        binder = CoreBinder(SAPPHIRE_RAPIDS_6430L)
        with pytest.raises(ValueError):
            binder.bind(8, 5, 4)  # 72 > 64

    def test_rejects_nonpositive_counts(self):
        binder = CoreBinder(SAPPHIRE_RAPIDS_6430L)
        with pytest.raises(ValueError):
            binder.bind(0, 1, 1)
        with pytest.raises(ValueError):
            binder.bind(1, 0, 1)
