"""Argument validation helpers shared across the library.

These raise early, with messages that name the offending argument, instead of
letting bad parameters surface as obscure numerical errors deep inside a
mechanism.  All functions return the validated (possibly coerced) value so
they can be used inline.
"""

from __future__ import annotations

import math
import os
from typing import Optional, Sequence

import numpy as np


def check_epsilon(epsilon: float, name: str = "epsilon") -> float:
    """Validate a differential-privacy parameter ``epsilon > 0``."""
    epsilon = float(epsilon)
    if not np.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError(f"{name} must be a finite positive float, got {epsilon!r}")
    return epsilon


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    """Validate an integer argument with a lower bound (inclusive)."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def positive_from_env(name: str, default: Optional[float],
                      kind: type = int) -> Optional[float]:
    """The positive ``kind`` (``int`` or ``float``) environment variable
    ``name`` holds, or ``default`` when it is unset or empty.

    Any other value (not a number of that kind, zero, negative, or not
    finite) raises ``ValueError`` naming the variable, so a typo fails
    where it is read instead of falling back silently.
    """
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = kind(raw)
    except ValueError:
        value = None
    if value is None or not 0 < value < math.inf:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{name}={raw!r} is not a positive {noun}")
    return value


def check_fraction(value: float, name: str, inclusive: bool = True) -> float:
    """Validate a float in ``[0, 1]`` (or ``(0, 1)`` when not inclusive)."""
    value = float(value)
    if inclusive:
        valid = 0.0 <= value <= 1.0
    else:
        valid = 0.0 < value < 1.0
    if not valid:
        bounds = "[0, 1]" if inclusive else "(0, 1)"
        raise ValueError(f"{name} must lie in {bounds}, got {value!r}")
    return value


def check_probability_vector(values: Sequence[float], name: str = "probabilities",
                             atol: float = 1e-6) -> np.ndarray:
    """Validate a non-negative vector summing to one (within ``atol``)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if np.any(arr < -atol):
        raise ValueError(f"{name} must be non-negative")
    total = float(arr.sum())
    if not np.isclose(total, 1.0, atol=atol):
        raise ValueError(f"{name} must sum to 1 (got {total:.6f})")
    return np.clip(arr, 0.0, None)
