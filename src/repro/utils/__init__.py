"""Shared utilities: random-number handling, validation and logging helpers."""

from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_epsilon,
    check_fraction,
    check_positive_int,
    check_probability_vector,
)

__all__ = [
    "ensure_rng",
    "check_epsilon",
    "check_fraction",
    "check_positive_int",
    "check_probability_vector",
]
