"""Core/socket topology helpers.

Cores are numbered socket-major: core ``c`` lives on socket
``c // cores_per_socket`` — matching the Linux enumeration on the paper's
machines (no hyper-threading; Table II counts physical cores).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.spec import PlatformSpec

__all__ = ["socket_of_core", "CoreSet"]


def socket_of_core(core: int, platform: PlatformSpec) -> int:
    """Socket id owning ``core``."""
    if not 0 <= core < platform.total_cores:
        raise ValueError(f"core {core} out of range for {platform.name}")
    return core // platform.cores_per_socket


@dataclass(frozen=True)
class CoreSet:
    """An ordered, duplicate-free set of core ids on a platform."""

    cores: tuple[int, ...]
    platform: PlatformSpec

    def __post_init__(self):
        if len(set(self.cores)) != len(self.cores):
            raise ValueError("duplicate core ids in CoreSet")
        total = self.platform.total_cores
        for c in self.cores:
            if not 0 <= c < total:
                raise ValueError(f"core {c} out of range for {self.platform.name}")

    def __len__(self) -> int:
        return len(self.cores)

    @property
    def sockets_spanned(self) -> list[int]:
        """Sorted list of distinct sockets these cores touch."""
        return sorted({socket_of_core(c, self.platform) for c in self.cores})

    @property
    def is_numa_local(self) -> bool:
        return len(self.sockets_spanned) <= 1

    @property
    def home_socket(self) -> int:
        """Socket holding the most of these cores (ties: the lowest id).

        First-touch allocation puts the process's memory pages there.
        """
        return int(np.bincount(self._socket_ids()).argmax())

    def _socket_ids(self) -> np.ndarray:
        return np.array(self.cores, dtype=np.int64) // self.platform.cores_per_socket

    def remote_fraction(self, home_socket: int | None = None) -> float:
        """Fraction of cores living off the home socket.

        The home socket defaults to :attr:`home_socket`.  Used by the cost
        model as a proxy for the fraction of DRAM traffic crossing UPI.
        """
        if not self.cores:
            return 0.0
        if home_socket is None:
            home_socket = self.home_socket
        return float(np.mean(self._socket_ids() != home_socket))
