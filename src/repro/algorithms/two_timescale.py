"""Two-time-scale gossip baseline (after Borkar [1], Konda-Tsitsiklis [4]).

The paper's related-work section points to averaging schemes with two time
scales.  There is no canonical distributed-averaging instantiation in
those references (they treat general stochastic approximation), so we
implement the natural one for a sparse-cut graph — documented substitution,
see "Fidelity notes" in docs/reports.md:

* internal edges run at the fast scale: plain vanilla averaging;
* cut edges run at a slow scale: a convex step ``x <- x + step * (x_j - x_i)``
  whose ``step`` is either a small constant or a decaying harmonic schedule
  ``step_0 / (1 + k / tau)`` in the cut's own tick count ``k``.

Every update here is convex (``step in (0, 1/2]``), so the scheme is a
member of class ``C`` and Theorem 1 applies to it: the benchmark E8 shows
two time scales alone do **not** escape the ``Omega(n1/|E12|)`` bottleneck
— only the non-convex gain does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.algorithms.rules import TwoTimescaleRule
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition


class TwoTimescaleGossip(GossipAlgorithm):
    """Fast intra-side averaging, slow convex cross-cut averaging.

    Parameters
    ----------
    partition:
        The sparse cut; cut edges get the slow scale.
    slow_step:
        Base step for cut-edge updates, in ``(0, 1/2]``.
    schedule:
        ``"constant"`` — every cut tick uses ``slow_step``;
        ``"harmonic"`` — cut tick ``k`` (1-based, counted across all cut
        edges) uses ``slow_step / (1 + (k - 1) / tau)``.
    tau:
        Decay horizon of the harmonic schedule (ignored for constant).
    """

    conserves_sum = True
    monotone_variance = True  # every update is symmetric convex

    def __init__(
        self,
        partition: Partition,
        *,
        slow_step: float = 0.1,
        schedule: str = "constant",
        tau: float = 10.0,
    ) -> None:
        if not 0.0 < slow_step <= 0.5:
            raise AlgorithmError(
                f"slow_step must be in (0, 1/2], got {slow_step}"
            )
        if schedule not in ("constant", "harmonic"):
            raise AlgorithmError(
                f"schedule must be 'constant' or 'harmonic', got {schedule!r}"
            )
        if tau <= 0:
            raise AlgorithmError(f"tau must be positive, got {tau}")
        self.partition = partition
        self.slow_step = float(slow_step)
        self.schedule = schedule
        self.tau = float(tau)
        self.name = f"two-timescale({schedule}, step={slow_step:g})"

        graph = partition.graph
        self._is_cut_edge = np.zeros(graph.n_edges, dtype=bool)
        self._is_cut_edge[partition.cut_edge_ids] = True
        self._cut_ticks = 0

    def setup(
        self, graph: Graph, values: np.ndarray, rng: np.random.Generator
    ) -> None:
        if graph != self.partition.graph:
            raise AlgorithmError(
                "TwoTimescaleGossip was configured for a different graph"
            )
        super().setup(graph, values, rng)
        self._cut_ticks = 0

    def _current_step(self) -> float:
        if self.schedule == "constant":
            return self.slow_step
        return self.slow_step / (1.0 + (self._cut_ticks - 1) / self.tau)

    def on_tick(
        self,
        edge_id: int,
        u: int,
        v: int,
        time: float,
        tick_count: int,
        values: "Sequence[float]",
    ) -> "tuple[float, float] | None":
        if not self._is_cut_edge[edge_id]:
            mean = 0.5 * (values[u] + values[v])
            return mean, mean
        self._cut_ticks += 1
        step = self._current_step()
        x_u = values[u]
        x_v = values[v]
        return x_u + step * (x_v - x_u), x_v + step * (x_u - x_v)

    def pairwise_rule(self) -> TwoTimescaleRule:
        return TwoTimescaleRule(
            cut_edges=self.partition.cut_edge_ids,
            slow_step=self.slow_step,
            harmonic=self.schedule == "harmonic",
            tau=self.tau,
        )

    def add_cut_ticks(self, count: int) -> None:
        """Count ``count`` cut ticks applied on this algorithm's behalf
        (by a caller running :meth:`pairwise_rule`)."""
        self._cut_ticks += count

    def describe(self) -> dict:
        return {
            "name": self.name,
            "slow_step": self.slow_step,
            "schedule": self.schedule,
            "tau": self.tau,
        }
