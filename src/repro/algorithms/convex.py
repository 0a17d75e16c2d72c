"""Members of the paper's convex class ``C``.

Class ``C`` (Definition 2) contains the algorithms whose tick updates are

    ``x_i(t+) = alpha * x_i(t-) + beta * x_j(t-)``
    ``x_j(t+) = alpha * x_j(t-) + beta * x_i(t-)``

with ``alpha in [0, 1]`` and ``alpha + beta = 1``.  Every member is
sum-conserving and variance-monotone (the update matrix is symmetric
doubly stochastic), and every member is subject to Theorem 1's
``Omega(min(n1, n2) / |E12|)`` lower bound.  These implementations exist
to probe that bound across the class, not just at ``alpha = 1/2``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.algorithms.rules import ConvexRule, RandomConvexRule
from repro.graphs.graph import Graph
from repro.util.validation import check_probability


class ConvexGossip(GossipAlgorithm):
    """Fixed-``alpha`` symmetric convex gossip.

    ``alpha = 1/2`` reproduces vanilla gossip; ``alpha`` closer to 1 is
    "lazier" (each tick moves less mass), scaling the averaging time by
    roughly ``1 / (2 alpha (1 - alpha)) * (1/2)`` relative to vanilla but
    never escaping the Theorem-1 bottleneck.
    """

    conserves_sum = True
    monotone_variance = True

    def __init__(self, alpha: float = 0.5) -> None:
        check_probability(alpha, "alpha")
        self.alpha = float(alpha)
        self.name = f"convex(alpha={self.alpha:g})"

    def on_tick(
        self,
        edge_id: int,
        u: int,
        v: int,
        time: float,
        tick_count: int,
        values: "Sequence[float]",
    ) -> "tuple[float, float] | None":
        a = self.alpha
        b = 1.0 - a
        x_u = values[u]
        x_v = values[v]
        return a * x_u + b * x_v, a * x_v + b * x_u

    def pairwise_rule(self) -> ConvexRule:
        return ConvexRule(alpha=self.alpha)

    def describe(self) -> dict:
        return {"name": self.name, "alpha": self.alpha}


class RandomConvexGossip(GossipAlgorithm):
    """Convex gossip with ``alpha`` drawn fresh per tick from ``[lo, hi]``.

    Still inside class ``C`` (the definition constrains each update, not
    the sequence), so still bound by Theorem 1.  Exists to show the lower
    bound is about the *class*, not one fixed mixing weight.
    """

    conserves_sum = True
    monotone_variance = True

    def __init__(self, low: float = 0.0, high: float = 1.0) -> None:
        check_probability(low, "low")
        check_probability(high, "high")
        if low > high:
            raise ValueError(f"low must be <= high, got ({low}, {high})")
        self.low = float(low)
        self.high = float(high)
        self.name = f"convex(alpha~U[{self.low:g},{self.high:g}])"

    def setup(
        self, graph: Graph, values: np.ndarray, rng: np.random.Generator
    ) -> None:
        super().setup(graph, values, rng)

    def on_tick(
        self,
        edge_id: int,
        u: int,
        v: int,
        time: float,
        tick_count: int,
        values: "Sequence[float]",
    ) -> "tuple[float, float] | None":
        a = self._rng.uniform(self.low, self.high)
        b = 1.0 - a
        x_u = values[u]
        x_v = values[v]
        return a * x_u + b * x_v, a * x_v + b * x_u

    def pairwise_rule(self) -> RandomConvexRule:
        return RandomConvexRule(low=self.low, high=self.high)

    def describe(self) -> dict:
        return {"name": self.name, "low": self.low, "high": self.high}
