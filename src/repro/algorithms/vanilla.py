"""Vanilla gossip: replace both endpoints by their arithmetic mean.

This is the paper's reference algorithm — the one whose per-subgraph
averaging times ``Tvan(G1)``, ``Tvan(G2)`` parameterize Algorithm A — and
the canonical member of the convex class ``C`` (``alpha = 1/2``).  It is
the natural subject of Theorem 1's ``Omega(n1/|E12|)`` lower bound.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import GossipAlgorithm
from repro.algorithms.rules import MeanRule


class VanillaGossip(GossipAlgorithm):
    """``x_u, x_v <- (x_u + x_v) / 2`` on every tick.

    Sum-conserving, variance-monotone: each tick removes
    ``(x_u - x_v)^2 / 2`` from the sum of squared deviations.
    """

    name = "vanilla"
    conserves_sum = True
    monotone_variance = True

    def on_tick(
        self,
        edge_id: int,
        u: int,
        v: int,
        time: float,
        tick_count: int,
        values: "Sequence[float]",
    ) -> "tuple[float, float] | None":
        mean = 0.5 * (values[u] + values[v])
        return mean, mean

    def pairwise_rule(self) -> MeanRule:
        return MeanRule()
