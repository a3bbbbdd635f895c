"""Shared utilities: seeded RNG management, validation helpers."""

from repro.utils.rng import derive_rng
from repro.utils.validation import (
    check_positive_int,
    check_nonneg_int,
    check_probability,
    check_in,
)

__all__ = [
    "derive_rng",
    "check_positive_int",
    "check_nonneg_int",
    "check_probability",
    "check_in",
]
