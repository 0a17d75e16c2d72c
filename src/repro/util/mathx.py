"""Numerical helpers shared by the engine and analysis layers."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Floor used when taking logs of quantities that may underflow to zero.
LOG_FLOOR = 1e-300


def safe_log(value: float, *, floor: float = LOG_FLOOR) -> float:
    """Natural log clamped below by ``log(floor)`` so zeros don't raise.

    Variance traces legitimately reach exact zero (for example on a two-node
    graph after one vanilla update); analyses that track ``log var`` treat
    that as "converged past measurement range" rather than an error.
    """
    return math.log(max(value, floor))


def running_mean(values: Sequence[float]) -> np.ndarray:
    """Cumulative mean of a sequence (``out[k] = mean(values[: k + 1])``)."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError("running_mean expects a 1-D sequence")
    if array.size == 0:
        return array.copy()
    return np.cumsum(array) / np.arange(1, array.size + 1)


def quantile(values: Sequence[float], q: float) -> float:
    """Empirical ``q``-quantile (linear interpolation, validated input)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("quantile of an empty sequence is undefined")
    return float(np.quantile(array, q))


def variance(values: Sequence[float]) -> float:
    """Population variance ``mean((x - mean(x))**2)`` as the paper defines it."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise ValueError("variance of an empty sequence is undefined")
    return float(np.mean((array - array.mean()) ** 2))


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of ``y = a * x**b`` in log-log space.

    Returns ``(exponent b, prefactor a)``.  Used by experiments to report
    measured scaling exponents (for example `T_av ~ n^1.0` for vanilla
    gossip on dumbbells).
    """
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("fit_power_law expects two 1-D sequences of equal length")
    if x.size < 2:
        raise ValueError("fit_power_law needs at least two points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("fit_power_law requires strictly positive data")
    slope, intercept = np.polyfit(np.log(x), np.log(y), deg=1)
    return float(slope), float(math.exp(intercept))


def fit_log_law(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of ``y = a * log(x) + c``; returns ``(a, c)``."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("fit_log_law expects two 1-D sequences of equal length")
    if x.size < 2:
        raise ValueError("fit_log_law needs at least two points")
    if np.any(x <= 0):
        raise ValueError("fit_log_law requires strictly positive x data")
    slope, intercept = np.polyfit(np.log(x), y, deg=1)
    return float(slope), float(intercept)
