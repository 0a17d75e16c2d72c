"""Geographic gossip on geometric networks (the paper's reference [6]).

The paper's introduction anchors its non-convexity theme in the author's
earlier result (Narayanan, PODC 2007): on geometric random graphs,
*geographic gossip* — averaging random node pairs found by greedy
position-based routing, instead of adjacent pairs — cuts the total number
of updates needed for averaging.  This module implements that protocol as
a library baseline so the comparison is runnable:

* on each edge tick, with probability ``initiation_probability`` one
  endpoint initiates a *long-range* exchange: it draws a uniformly random
  target node, routes to it greedily through the geometry, and the two
  endpoints of the route average (relay nodes are unchanged — the
  rendezvous abstraction of geographic gossip);
* otherwise the tick is a plain local vanilla update.

Cost accounting is the point of [6]: a local update costs 1 message, a
long-range exchange costs its route length (hops there; the averaged
value returns along the same route).  :attr:`GeographicGossip.message_count`
accumulates the total so experiments can compare *messages-to-accuracy*,
not just wall-clock time.  Routing voids (greedy dead ends) fall back to
a local update, as in the original protocol family.

Fidelity note: [6] additionally uses affine (non-convex) combinations
along the route under partial centralized control to reach ``n^{1+o(1)}``
updates; the routable-rendezvous version implemented here is its standard
substrate (Dimakis-Sarwate-Wainwright style) and is what the experiment
E11 measures.  The substitution is recorded under "Fidelity notes" in
docs/reports.md.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.errors import AlgorithmError
from repro.graphs.geometric import GeometricNetwork
from repro.graphs.graph import Graph


class GeographicGossip(GossipAlgorithm):
    """Geographic (rendezvous) gossip over a positioned network."""

    conserves_sum = True
    monotone_variance = True  # every update is a pairwise mean

    def __init__(
        self,
        network: GeometricNetwork,
        *,
        initiation_probability: float = 0.3,
    ) -> None:
        if not 0.0 <= initiation_probability <= 1.0:
            raise AlgorithmError(
                f"initiation_probability must be in [0, 1], "
                f"got {initiation_probability}"
            )
        self.network = network
        self.initiation_probability = float(initiation_probability)
        self.name = f"geographic(q={self.initiation_probability:g})"
        self._message_count = 0
        self._long_range_exchanges = 0
        self._void_fallbacks = 0

    @property
    def message_count(self) -> int:
        """Total messages since setup (1 per local update, hops per route)."""
        return self._message_count

    @property
    def long_range_exchanges(self) -> int:
        """Completed long-range exchanges since setup."""
        return self._long_range_exchanges

    @property
    def void_fallbacks(self) -> int:
        """Routing voids that degraded into local updates."""
        return self._void_fallbacks

    def setup(
        self, graph: Graph, values: np.ndarray, rng: np.random.Generator
    ) -> None:
        if graph != self.network.graph:
            raise AlgorithmError(
                "GeographicGossip was configured for a different network"
            )
        super().setup(graph, values, rng)
        self._message_count = 0
        self._long_range_exchanges = 0
        self._void_fallbacks = 0

    def on_tick(
        self,
        edge_id: int,
        u: int,
        v: int,
        time: float,
        tick_count: int,
        values: "Sequence[float]",
    ):
        if self._rng.random() >= self.initiation_probability:
            self._message_count += 1
            mean = 0.5 * (values[u] + values[v])
            return mean, mean
        initiator = u if self._rng.random() < 0.5 else v
        target = int(self._rng.integers(self.network.graph.n_vertices))
        if target == initiator:
            self._message_count += 1
            mean = 0.5 * (values[u] + values[v])
            return mean, mean
        hops = self.network.hop_count(initiator, target)
        if hops is None:
            self._void_fallbacks += 1
            self._message_count += 1
            mean = 0.5 * (values[u] + values[v])
            return mean, mean
        # Out along the route, and the averaged value travels back.
        self._message_count += 2 * hops
        self._long_range_exchanges += 1
        mean = 0.5 * (values[initiator] + values[target])
        return [(initiator, mean), (target, mean)]

    def describe(self) -> dict:
        return {
            "name": self.name,
            "initiation_probability": self.initiation_probability,
            "message_count": self._message_count,
            "long_range_exchanges": self._long_range_exchanges,
            "void_fallbacks": self._void_fallbacks,
        }
