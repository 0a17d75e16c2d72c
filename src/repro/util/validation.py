"""Argument validation with a uniform message ("alpha must be in [0, 1]").

The helper returns the validated value so it can be used inline.
"""

from __future__ import annotations


def check_probability(value: float, name: str) -> float:
    """Raise :class:`ValueError` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value
