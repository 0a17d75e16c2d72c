"""Multi-cluster extension of Algorithm A (the paper's natural next step).

The paper handles exactly one sparse cut.  For ``k`` well-connected
clusters joined sparsely, the same idea composes: designate one edge per
*adjacent cluster pair*, silence the other inter-cluster edges, run
vanilla inside clusters, and let each designated edge perform the
non-convex swap on every ``L_ab``-th of its own ticks with the pairwise
harmonic gain ``|V_a||V_b| / (|V_a|+|V_b|)`` — the gain that equalizes
*that pair's* means.  At the cluster level this is vanilla gossip on the
quotient graph with (noisy) perfect pairwise averaging, so the cluster
means converge whenever the quotient is connected; within clusters the
paper's epoch argument applies per cut.

This is an **extension beyond the paper** (no theorem claimed); benchmark
E12 measures it against vanilla and against naive single-cut Algorithm A
on chains of cliques.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.algorithms.rules import SparseCutRule, Swap
from repro.core.epochs import DEFAULT_EPOCH_CONSTANT
from repro.engine.results import RunResult
from repro.engine.simulator import Simulator
from repro.errors import AlgorithmError
from repro.graphs.clustering import ClusterPartition, spectral_clusters
from repro.graphs.graph import Graph
from repro.graphs.spectral import spectral_mixing_time


class MultiCutGossip(GossipAlgorithm):
    """Per-cut non-convex swaps across a k-cluster structure.

    Parameters
    ----------
    clusters:
        The cluster structure; every cluster must be internally connected
        and the quotient graph connected.
    epoch_lengths:
        Mapping ``(a, b) -> L_ab`` (cluster pairs, ``a < b``) or a single
        int used for every cut.
    """

    conserves_sum = True
    monotone_variance = False

    def __init__(
        self,
        clusters: ClusterPartition,
        *,
        epoch_lengths: "dict[tuple[int, int], int] | int",
    ) -> None:
        clusters.require_connected_clusters()
        if not clusters.quotient_is_connected():
            raise AlgorithmError(
                "cluster quotient graph is disconnected; averaging across "
                "all clusters is impossible"
            )
        self.clusters = clusters
        graph = clusters.graph
        pairs = clusters.adjacent_cluster_pairs
        if isinstance(epoch_lengths, int):
            epoch_lengths = {pair: epoch_lengths for pair in pairs}
        missing = [pair for pair in pairs if pair not in epoch_lengths]
        if missing:
            raise AlgorithmError(f"missing epoch lengths for cuts {missing}")
        for pair, length in epoch_lengths.items():
            if length < 1:
                raise AlgorithmError(
                    f"epoch length for cut {pair} must be >= 1, got {length}"
                )
        self.epoch_lengths = dict(epoch_lengths)
        self.name = f"multi-cut-A(k={clusters.k})"

        # Designated edge per adjacent pair: the lowest edge id.
        self._swap_plan: "dict[int, tuple[int, int, float, int]]" = {}
        self._is_inter_cluster = np.zeros(graph.n_edges, dtype=bool)
        for a, b in pairs:
            edge_ids = clusters.cut_edge_ids(a, b)
            self._is_inter_cluster[edge_ids] = True
            designated = int(edge_ids[0])
            u, v = graph.edge_endpoints(designated)
            if clusters.labels[u] == a:
                low, high = u, v
            else:
                low, high = v, u
            size_a = clusters.cluster_size(a)
            size_b = clusters.cluster_size(b)
            gain = size_a * size_b / (size_a + size_b)
            self._swap_plan[designated] = (
                low,
                high,
                gain,
                self.epoch_lengths[(a, b)],
            )
        self._swap_counts = {edge: 0 for edge in self._swap_plan}

    @property
    def designated_edges(self) -> "list[int]":
        """Edge ids carrying swaps, sorted."""
        return sorted(self._swap_plan)

    def swap_count(self, edge_id: int) -> int:
        """Swaps performed by one designated edge since setup."""
        if edge_id not in self._swap_counts:
            raise AlgorithmError(f"edge {edge_id} is not a designated edge")
        return self._swap_counts[edge_id]

    def setup(
        self, graph: Graph, values: np.ndarray, rng: np.random.Generator
    ) -> None:
        if graph != self.clusters.graph:
            raise AlgorithmError(
                "MultiCutGossip was configured for a different graph"
            )
        super().setup(graph, values, rng)
        self._swap_counts = {edge: 0 for edge in self._swap_plan}

    def on_tick(
        self,
        edge_id: int,
        u: int,
        v: int,
        time: float,
        tick_count: int,
        values: "Sequence[float]",
    ) -> "tuple[float, float] | None":
        if not self._is_inter_cluster[edge_id]:
            mean = 0.5 * (values[u] + values[v])
            return mean, mean
        plan = self._swap_plan.get(edge_id)
        if plan is None:
            return None
        low, high, gain, epoch_length = plan
        if tick_count % epoch_length != 0:
            return None
        self._swap_counts[edge_id] += 1
        delta = float(values[high]) - float(values[low])
        transfer = gain * delta
        new_low = float(values[low]) + transfer
        new_high = float(values[high]) - transfer
        if u == low:
            return new_low, new_high
        return new_high, new_low

    def pairwise_rule(self) -> SparseCutRule:
        """The tick as Algorithm A's rule with one swap per designated edge."""
        edge_class = np.where(
            self._is_inter_cluster, SparseCutRule.SILENCED, SparseCutRule.MEAN
        ).astype(np.int8)
        swaps = []
        for edge, (low, high, gain, epoch_length) in sorted(self._swap_plan.items()):
            edge_class[edge] = SparseCutRule.DESIGNATED
            swaps.append(
                Swap(edge=edge, a=low, b=high, gain=gain, epoch_length=epoch_length)
            )
        return SparseCutRule(
            edge_class=edge_class, swaps=tuple(swaps), graph=self.clusters.graph
        )

    def add_swaps(self, edge_id: int, count: int) -> None:
        """Count ``count`` swaps of ``edge_id`` applied on this algorithm's
        behalf (by a caller running :meth:`pairwise_rule`)."""
        self._swap_counts[edge_id] += count

    def describe(self) -> dict:
        return {
            "name": self.name,
            "k": self.clusters.k,
            "designated_edges": self.designated_edges,
            "epoch_lengths": {
                f"{a}-{b}": length
                for (a, b), length in sorted(self.epoch_lengths.items())
            },
        }


class MultiClusterAveraging:
    """Orchestrator: detect/accept k clusters, size epochs, run swaps.

    The k-cluster analog of
    :class:`~repro.core.sparse_cut_averaging.SparseCutAveraging`.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        clusters: "ClusterPartition | None" = None,
        n_clusters: "int | None" = None,
        epoch_constant: float = DEFAULT_EPOCH_CONSTANT,
    ) -> None:
        if not graph.is_connected():
            raise AlgorithmError(
                "MultiClusterAveraging requires a connected graph"
            )
        if epoch_constant <= 0:
            raise AlgorithmError(
                f"epoch_constant must be positive, got {epoch_constant}"
            )
        if clusters is None:
            if n_clusters is None:
                raise AlgorithmError(
                    "provide either a ClusterPartition or n_clusters"
                )
            clusters = spectral_clusters(graph, n_clusters)
        elif clusters.graph != graph:
            raise AlgorithmError("clusters were built for a different graph")
        clusters.require_connected_clusters()
        self.graph = graph
        self.clusters = clusters
        self.epoch_constant = float(epoch_constant)
        self._tvan: "list[float] | None" = None
        self._epochs: "dict[tuple[int, int], int] | None" = None

    def cluster_vanilla_times(self) -> "list[float]":
        """Spectral ``Tvan`` of every cluster (cached)."""
        if self._tvan is None:
            times = []
            for c in range(self.clusters.k):
                subgraph, _ = self.clusters.subgraph(c)
                if subgraph.n_vertices < 2:
                    times.append(0.0)
                else:
                    times.append(spectral_mixing_time(subgraph))
            self._tvan = times
        return list(self._tvan)

    def epoch_lengths(self) -> "dict[tuple[int, int], int]":
        """Per-cut ``L_ab = ceil(C (Tvan_a + Tvan_b) ln n)`` (cached)."""
        if self._epochs is None:
            tvan = self.cluster_vanilla_times()
            log_n = math.log(self.graph.n_vertices)
            self._epochs = {
                (a, b): max(
                    1,
                    int(
                        math.ceil(
                            self.epoch_constant * (tvan[a] + tvan[b]) * log_n
                        )
                    ),
                )
                for a, b in self.clusters.adjacent_cluster_pairs
            }
        return dict(self._epochs)

    def build_algorithm(self) -> MultiCutGossip:
        """A fresh configured :class:`MultiCutGossip`."""
        return MultiCutGossip(
            self.clusters, epoch_lengths=self.epoch_lengths()
        )

    def run(
        self,
        initial_values: "Sequence[float]",
        *,
        seed: "int | None" = None,
        **run_kwargs: object,
    ) -> RunResult:
        """Simulate once from ``initial_values``."""
        simulator = Simulator(
            self.graph, self.build_algorithm(), initial_values, seed=seed
        )
        return simulator.run(**run_kwargs)  # type: ignore[arg-type]

    def summary(self) -> dict:
        """Configuration overview for logging."""
        return {
            "k": self.clusters.k,
            "cluster_sizes": [
                self.clusters.cluster_size(c) for c in range(self.clusters.k)
            ],
            "adjacent_pairs": self.clusters.adjacent_cluster_pairs,
            "total_cut_size": self.clusters.total_cut_size,
            "tvan": self.cluster_vanilla_times(),
            "epoch_lengths": {
                f"{a}-{b}": length
                for (a, b), length in sorted(self.epoch_lengths().items())
            },
        }
