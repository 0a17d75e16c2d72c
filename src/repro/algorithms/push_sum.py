"""Push-sum (sum-weight) gossip, an extension baseline outside class ``C``.

Push-sum (Kempe-Dobra-Gehrke style) tracks per-node mass ``s_i`` and weight
``w_i``; the running estimate is ``x_i = s_i / w_i``.  On a tick of edge
``(u, v)`` a random one of the two endpoints pushes half of its ``(s, w)``
to the other.  The *estimates* are not produced by convex pairwise updates
on ``x`` — push-sum is not a member of class ``C`` — yet mass still crosses
the cut only one push at a time, so it remains cut-limited; benchmark E8
measures it next to Algorithm A to show "outside C" alone is not enough.

Auxiliary state is owned by the algorithm; the engine's value vector holds
the estimates (so variance metrics apply unchanged).  Estimates do not
conserve their sum exactly (the underlying masses ``s`` do), hence
``conserves_sum = False``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.algorithms.rules import PushSumRule
from repro.graphs.graph import Graph


class PushSumGossip(GossipAlgorithm):
    """Pairwise push-sum with random push direction per tick."""

    name = "push-sum"
    conserves_sum = False
    monotone_variance = False

    def __init__(self) -> None:
        # Plain lists: per-event scalar indexing of lists is several
        # times faster than of numpy arrays, with the same float math.
        self._mass: "list[float] | None" = None
        self._weight: "list[float] | None" = None

    def setup(
        self, graph: Graph, values: np.ndarray, rng: np.random.Generator
    ) -> None:
        super().setup(graph, values, rng)
        self._mass = values.astype(np.float64).tolist()
        self._weight = [1.0] * graph.n_vertices

    def on_tick(
        self,
        edge_id: int,
        u: int,
        v: int,
        time: float,
        tick_count: int,
        values: "Sequence[float]",
    ) -> "tuple[float, float] | None":
        mass = self._mass
        weight = self._weight
        assert mass is not None and weight is not None
        if self._rng.random() < 0.5:
            sender, receiver = u, v
        else:
            sender, receiver = v, u
        half_mass = 0.5 * mass[sender]
        half_weight = 0.5 * weight[sender]
        mass[sender] = half_mass
        weight[sender] = half_weight
        mass[receiver] += half_mass
        weight[receiver] += half_weight
        return mass[u] / weight[u], mass[v] / weight[v]

    def pairwise_rule(self) -> PushSumRule:
        """The tick over this run's mass and weight lists (after setup)."""
        if self._mass is None or self._weight is None:
            raise RuntimeError("setup() has not been called")
        return PushSumRule(mass=self._mass, weight=self._weight)

    def total_mass(self) -> float:
        """Total conserved mass ``sum(s)`` (equals ``sum(x(0))`` forever)."""
        if self._mass is None:
            raise RuntimeError("setup() has not been called")
        # numpy's pairwise summation, as when the masses were an array.
        return float(np.asarray(self._mass).sum())
