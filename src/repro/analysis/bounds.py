"""Closed-form theorem bounds for paper-vs-measured comparisons.

These are the numbers the reports quote next to every measurement:
Theorem 1's convex lower bound with the constant the paper's Section-2
derivation actually produces, Theorem 2's envelope, and the dumbbell
headline predictions.
"""

from __future__ import annotations

import math

from repro.errors import AnalysisError
from repro.graphs.partition import Partition
from repro.graphs.spectral import spectral_mixing_time


def theorem1_lower_bound(partition: Partition) -> float:
    """Theorem 1: ``T_av >= (1 - 1/e)^2 * n1 / (4 |E12|)`` for class C.

    Derivation (paper Section 2): each cut tick moves the side mean by at
    most ``2/n1``; cut ticks by time ``t`` are Poisson with mean
    ``t |E12|``; requiring the mean displacement to reach order 1 with the
    definition's confidence yields the constant ``(1 - 1/e)^2 / 4``.
    """
    if partition.cut_size == 0:
        raise AnalysisError("lower bound undefined for an empty cut")
    factor = (1.0 - 1.0 / math.e) ** 2 / 4.0
    return factor * partition.n1 / partition.cut_size


def theorem2_upper_bound(
    partition: Partition, *, constant: float = 3.0
) -> float:
    """Theorem 2's envelope ``C * ln n * (Tvan(G1) + Tvan(G2))``.

    ``Tvan`` is taken as the spectral proxy (fidelity note F2 in
    docs/reports.md).  This is an
    order bound — the interesting comparisons are ratios across ``n``.
    """
    if constant <= 0:
        raise AnalysisError(f"constant must be positive, got {constant}")
    g1, _, g2, _ = partition.subgraphs()
    tvan = spectral_mixing_time(g1) + spectral_mixing_time(g2)
    n = partition.graph.n_vertices
    return constant * math.log(n) * tvan


def dumbbell_predictions(n: int, *, constant: float = 3.0) -> dict:
    """The paper's headline numbers for the dumbbell ``G'`` of size ``n``.

    * convex lower bound: ``Omega(n)`` — returned with Theorem 1's
      constant for ``n1 = n/2``, ``|E12| = 1``;
    * Algorithm A upper bound: ``O(log n)`` — returned as
      ``C * ln n * 2 * Tvan(K_{n/2})`` with the spectral
      ``Tvan(K_m) = 4/m`` (``lambda_2(L(K_m)) = m``), i.e.
      ``16 C ln(n) / n`` — plus one unit for the ceiling on the epoch
      length (the designated edge must tick at least once per epoch, and
      a tick takes ``Exp(1)`` time).
    """
    if n < 4 or n % 2:
        raise AnalysisError(f"dumbbell size must be even and >= 4, got {n}")
    half = n // 2
    convex_lower = (1.0 - 1.0 / math.e) ** 2 / 4.0 * half
    tvan_half = 4.0 / half
    nonconvex_upper = constant * math.log(n) * 2.0 * tvan_half + 1.0
    return {
        "n": n,
        "convex_lower_bound": convex_lower,
        "nonconvex_upper_bound": nonconvex_upper,
        "predicted_speedup_at_least": convex_lower / nonconvex_upper,
    }
