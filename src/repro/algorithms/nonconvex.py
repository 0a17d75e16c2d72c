"""Algorithm A: non-convex gossip for graphs with one sparse cut.

This is the paper's contribution (Section 1.0.1).  The graph comes with a
partition ``(V1, V2)`` (``n1 <= n2``) and a designated cut edge
``e_c = (v_a, v_b)`` with ``v_a in V1``, ``v_b in V2``.  On a tick of:

* an **internal** edge (both endpoints on one side): vanilla averaging —
  both endpoints move to their mean;
* a **cut edge other than** ``e_c``: no update (the cut is silenced so the
  designated edge's bookkeeping sees a clean schedule);
* the **designated edge** ``e_c``: nothing, except on every
  ``L``-th tick of ``e_c`` (``L = ceil(C * (Tvan(G1) + Tvan(G2)) * ln n)``,
  the *epoch length*), when the endpoints perform the non-convex swap

      ``x_a <- x_a + g * (x_b - x_a)``
      ``x_b <- x_b - g * (x_b - x_a)``

  with gain ``g`` far outside ``[0, 1]``.  The swap moves ``g * delta``
  units of mass across the cut in one shot — the whole point of the paper:
  a convex update can move only ``O(1)`` mass per cut tick, which is what
  Theorem 1's ``Omega(n1 / |E12|)`` bound counts.

Gain conventions (fidelity note F1 in docs/reports.md):

* ``gain="paper"`` — ``g = n1``, the literal constant in the paper.  After
  both sides remix internally the imbalance evolves as
  ``delta' = -(n1/n2) * delta``: convergent for unbalanced partitions,
  but a **perpetual oscillation** when ``n1 = n2``.
* ``gain="exact"`` (default) — ``g = n1 * n2 / n``, the harmonic gain that
  zeroes the post-remix imbalance exactly; this is the constant the
  paper's own inequality (7) requires, and it equals ``n1`` up to a factor
  ``n2/n in [1/2, 1)`` — same order, correct fixed point.
* a float — any explicit gain, for ablations.

The decentralized swap uses the *endpoint values* as proxies for the side
means (error controlled by the paper's inequality (3)); pass
``oracle_means=True`` to use the true side means instead — an idealized
variant used by the analysis benchmarks to isolate the proxy noise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.algorithms.rules import SparseCutRule, Swap
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition


class NonConvexSparseCutGossip(GossipAlgorithm):
    """The paper's Algorithm A.

    Parameters
    ----------
    partition:
        The sparse cut ``(V1, V2)``; both sides must be internally
        connected and the cut must be non-empty.
    epoch_length:
        ``L`` — the swap fires on every ``L``-th tick of the designated
        edge.  Computed by :func:`repro.core.epochs.epoch_length_ticks`
        from ``C``, ``Tvan(G1)``, ``Tvan(G2)``; must be >= 1.
    designated_edge:
        Edge id of ``e_c``; defaults to the lowest-id cut edge.  Must be a
        cut edge.
    gain:
        ``"exact"``, ``"paper"``, or an explicit float (see module
        docstring).
    oracle_means:
        If True, the swap reads the true side means instead of the
        endpoint values (idealized variant for analysis).
    """

    conserves_sum = True
    monotone_variance = False

    def __init__(
        self,
        partition: Partition,
        *,
        epoch_length: int,
        designated_edge: "int | None" = None,
        gain: "str | float" = "exact",
        oracle_means: bool = False,
    ) -> None:
        partition.require_connected_sides()
        if partition.cut_size == 0:
            raise AlgorithmError("Algorithm A needs at least one cut edge")
        if epoch_length < 1:
            raise AlgorithmError(
                f"epoch_length must be a positive integer, got {epoch_length}"
            )
        self.partition = partition
        self.epoch_length = int(epoch_length)
        self.oracle_means = bool(oracle_means)

        cut_ids = partition.cut_edge_ids
        if designated_edge is None:
            designated_edge = int(cut_ids[0])
        if designated_edge not in set(int(e) for e in cut_ids):
            raise AlgorithmError(
                f"designated edge {designated_edge} is not a cut edge of the partition"
            )
        self.designated_edge = int(designated_edge)

        self._gain_spec = gain
        self.gain = self._resolve_gain(gain, partition)
        self.name = f"algorithm-A(gain={self._gain_label()})"

        graph = partition.graph
        u, v = graph.edge_endpoints(self.designated_edge)
        if partition.side_of(u) == 0:
            self._endpoint_v1, self._endpoint_v2 = u, v
        else:
            self._endpoint_v1, self._endpoint_v2 = v, u
        self._is_cut_edge = np.zeros(graph.n_edges, dtype=bool)
        self._is_cut_edge[cut_ids] = True
        self._swap_count = 0

    @staticmethod
    def _resolve_gain(gain: "str | float", partition: Partition) -> float:
        n1, n2 = partition.n1, partition.n2
        n = n1 + n2
        if gain == "exact":
            return n1 * n2 / n
        if gain == "paper":
            return float(n1)
        if isinstance(gain, (int, float)) and not isinstance(gain, bool):
            if gain == 0:
                raise AlgorithmError("gain must be non-zero")
            return float(gain)
        raise AlgorithmError(
            f"gain must be 'exact', 'paper', or a non-zero number, got {gain!r}"
        )

    def _gain_label(self) -> str:
        if isinstance(self._gain_spec, str):
            return self._gain_spec
        return f"{self.gain:g}"

    @property
    def swap_count(self) -> int:
        """How many non-convex swaps have fired since the last setup."""
        return self._swap_count

    def setup(
        self, graph: Graph, values: np.ndarray, rng: np.random.Generator
    ) -> None:
        if graph is not self.partition.graph and graph != self.partition.graph:
            raise AlgorithmError(
                "Algorithm A was configured for a different graph than the "
                "one it is being run on"
            )
        super().setup(graph, values, rng)
        self._swap_count = 0

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
        if edge_id != self.designated_edge:
            return None
        # Paper: fire when k = -1 mod L, i.e. on ticks L, 2L, ... of e_c
        # (tick_count is 1-based).
        if tick_count % self.epoch_length != 0:
            return None
        self._swap_count += 1
        a, b = self._endpoint_v1, self._endpoint_v2
        if self.oracle_means:
            snapshot = np.asarray(values, dtype=np.float64)
            delta = float(
                snapshot[self.partition.vertices_2].mean()
                - snapshot[self.partition.vertices_1].mean()
            )
        else:
            delta = float(values[b] - values[a])
        transfer = self.gain * delta
        new_a = float(values[a]) + transfer
        new_b = float(values[b]) - transfer
        if u == a:
            return new_a, new_b
        return new_b, new_a

    def pairwise_rule(self) -> SparseCutRule:
        """Algorithm A's tick, declared once for the fast consumers.

        ``on_tick`` is a pure function of the edge's class and the
        designated edge's tick count, which is what lets the simulator
        and the vectorized kernel replay it without calling ``on_tick``.
        """
        graph = self.partition.graph
        edge_class = np.full(graph.n_edges, SparseCutRule.MEAN, dtype=np.int8)
        edge_class[self.partition.cut_edge_ids] = SparseCutRule.SILENCED
        edge_class[self.designated_edge] = SparseCutRule.DESIGNATED
        swap = Swap(
            edge=self.designated_edge,
            a=self._endpoint_v1,
            b=self._endpoint_v2,
            gain=self.gain,
            epoch_length=self.epoch_length,
        )
        sides = (self.partition.vertices_1, self.partition.vertices_2)
        return SparseCutRule(
            edge_class=edge_class,
            swaps=(swap,),
            graph=graph,
            oracle_sides=sides if self.oracle_means else None,
        )

    def add_swaps(self, edge_id: int, count: int) -> None:
        """Count ``count`` swaps of ``edge_id`` applied on this algorithm's
        behalf.

        A caller that runs :meth:`pairwise_rule` instead of ``on_tick``
        reports its swaps here, so :attr:`swap_count` reads the same.
        """
        self._swap_count += count

    def describe(self) -> dict:
        return {
            "name": self.name,
            "epoch_length": self.epoch_length,
            "designated_edge": self.designated_edge,
            "gain": self.gain,
            "gain_spec": self._gain_spec,
            "oracle_means": self.oracle_means,
            "n1": self.partition.n1,
            "n2": self.partition.n2,
            "cut_size": self.partition.cut_size,
        }
