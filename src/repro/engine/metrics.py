"""Small metric helpers shared by estimators, analyses and tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def variance_of(values: "Sequence[float]") -> float:
    """Population variance, the paper's ``var X`` (Definition 1)."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ValueError("variance of an empty vector is undefined")
    return float(np.var(array))


def variance_ratio(
    values: "Sequence[float]", initial_values: "Sequence[float]"
) -> float:
    """``var(values) / var(initial_values)`` (inf if the start had var 0)."""
    initial = variance_of(initial_values)
    current = variance_of(values)
    if initial == 0.0:
        return float("inf") if current > 0 else 0.0
    return current / initial
