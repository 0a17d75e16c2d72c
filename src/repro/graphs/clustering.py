"""K-way cluster structure: many well-connected clusters, sparse between.

The paper treats one sparse cut.  The natural generalization — several
internally well-connected clusters joined sparsely (a chain of campuses, a
federation of racks) — is what :class:`ClusterPartition` models and what
:func:`spectral_clusters` detects by recursive Fiedler bisection.  The
multi-cut extension of Algorithm A
(:class:`repro.core.multi_cut.MultiClusterAveraging`) is built on top.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import PartitionError
from repro.graphs.graph import Graph

_NO_EDGES = np.empty(0, dtype=np.int64)
_NO_EDGES.setflags(write=False)


class ClusterPartition:
    """A partition of a graph's vertices into ``k >= 2`` labelled clusters.

    Exposes per-cluster vertex sets, the inter-cluster edge lists, and the
    *quotient* structure (which cluster pairs are adjacent) that the
    multi-cut algorithm schedules its designated edges on.
    """

    def __init__(self, graph: Graph, labels: Sequence[int]) -> None:
        label_array = np.array(labels, dtype=np.int64)  # own copy: frozen below
        if label_array.shape != (graph.n_vertices,):
            raise PartitionError(
                f"labels must have length {graph.n_vertices}, "
                f"got {label_array.shape}"
            )
        unique = np.unique(label_array)
        if len(unique) < 2:
            raise PartitionError("need at least two clusters")
        if not np.array_equal(unique, np.arange(len(unique))):
            raise PartitionError(
                f"labels must be 0..k-1 with every cluster non-empty, "
                f"found {unique.tolist()}"
            )
        self._graph = graph
        self._labels = label_array
        self._labels.setflags(write=False)
        self._k = len(unique)
        self._members = [
            np.flatnonzero(label_array == c) for c in range(self._k)
        ]
        end_labels = label_array[graph.edges]
        low = end_labels.min(axis=1)
        high = end_labels.max(axis=1)
        internal = low == high
        self._internal_edges = [
            np.flatnonzero(internal & (low == c)) for c in range(self._k)
        ]
        pair_code = np.where(internal, -1, low * self._k + high)
        self._cut_edges = {
            (int(code) // self._k, int(code) % self._k): np.flatnonzero(
                pair_code == code
            )
            for code in np.unique(pair_code[~internal])
        }
        for array in (
            *self._members,
            *self._internal_edges,
            *self._cut_edges.values(),
        ):
            array.setflags(write=False)
        self._subgraphs: "dict[int, tuple[Graph, np.ndarray]]" = {}
        self._clusters_connected: "list[bool] | None" = None

    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self._k

    @property
    def labels(self) -> np.ndarray:
        """Read-only per-vertex cluster label."""
        return self._labels

    def members(self, cluster: int) -> np.ndarray:
        """Sorted, read-only vertex array of one cluster."""
        self._check_cluster(cluster)
        return self._members[cluster]

    def cluster_size(self, cluster: int) -> int:
        """``|V_c|``."""
        return len(self.members(cluster))

    def internal_edge_ids(self, cluster: int) -> np.ndarray:
        """Read-only edge ids internal to one cluster."""
        self._check_cluster(cluster)
        return self._internal_edges[cluster]

    @property
    def adjacent_cluster_pairs(self) -> "list[tuple[int, int]]":
        """Sorted list of cluster pairs joined by at least one edge."""
        return list(self._cut_edges)

    def cut_edge_ids(self, a: int, b: int) -> np.ndarray:
        """Read-only edge ids between clusters ``a`` and ``b`` (may be empty)."""
        self._check_cluster(a)
        self._check_cluster(b)
        if a == b:
            raise PartitionError("a cut needs two distinct clusters")
        key = (a, b) if a < b else (b, a)
        return self._cut_edges.get(key, _NO_EDGES)

    @property
    def total_cut_size(self) -> int:
        """Total inter-cluster edges."""
        return int(sum(len(ids) for ids in self._cut_edges.values()))

    def subgraph(self, cluster: int) -> "tuple[Graph, np.ndarray]":
        """Induced subgraph of one cluster (graph, read-only vertex map).

        Computed once per cluster: the partition is immutable.
        """
        try:
            return self._subgraphs[cluster]
        except KeyError:
            subgraph, mapping = self._graph.subgraph(self.members(cluster))
            mapping.setflags(write=False)
            self._subgraphs[cluster] = (subgraph, mapping)
            return subgraph, mapping

    def clusters_connected(self) -> "list[bool]":
        """Whether each cluster is internally connected (computed once)."""
        if self._clusters_connected is None:
            self._clusters_connected = [
                self.subgraph(c)[0].is_connected() for c in range(self._k)
            ]
        return list(self._clusters_connected)

    def require_connected_clusters(self) -> None:
        """Raise unless every cluster is internally connected."""
        broken = [
            c for c, ok in enumerate(self.clusters_connected()) if not ok
        ]
        if broken:
            raise PartitionError(
                f"clusters {broken} are not internally connected"
            )

    def quotient_is_connected(self) -> bool:
        """Whether the cluster adjacency (quotient) graph is connected."""
        if self._k == 1:
            return True
        quotient = Graph(self._k, self.adjacent_cluster_pairs)
        return quotient.is_connected()

    def __getstate__(self) -> dict:
        # Pickle only the defining state, never the caches, so a pickle's
        # bytes do not depend on whether a cache was filled.
        state = dict(self.__dict__)
        del state["_subgraphs"], state["_clusters_connected"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._subgraphs = {}
        self._clusters_connected = None

    def _check_cluster(self, cluster: int) -> None:
        if not 0 <= cluster < self._k:
            raise PartitionError(
                f"cluster {cluster} out of range for k={self._k}"
            )

    def __repr__(self) -> str:
        sizes = [self.cluster_size(c) for c in range(self._k)]
        return (
            f"ClusterPartition(k={self._k}, sizes={sizes}, "
            f"total_cut_size={self.total_cut_size})"
        )


def spectral_clusters(graph: Graph, k: int) -> ClusterPartition:
    """Detect ``k`` clusters by recursive Fiedler bisection.

    Repeatedly splits the currently largest cluster with a sweep cut whose
    sides are internally connected, until ``k`` clusters exist.  On graphs
    that genuinely consist of well-connected clusters joined sparsely
    (the regime of interest) this recovers the planted structure.
    """
    from repro.graphs.cuts import fiedler_sweep_cut

    if k < 2:
        raise PartitionError(f"k must be at least 2, got {k}")
    if k > graph.n_vertices:
        raise PartitionError(
            f"cannot make {k} clusters from {graph.n_vertices} vertices"
        )
    clusters: "list[np.ndarray]" = [np.arange(graph.n_vertices)]
    while len(clusters) < k:
        clusters.sort(key=len, reverse=True)
        target = clusters.pop(0)
        if len(target) < 2:
            raise PartitionError(
                "ran out of splittable clusters before reaching k"
            )
        subgraph, mapping = graph.subgraph(target)
        cut = fiedler_sweep_cut(subgraph, require_connected_sides=True)
        side_1 = mapping[cut.partition.vertices_1]
        side_2 = mapping[cut.partition.vertices_2]
        clusters.append(np.sort(side_1))
        clusters.append(np.sort(side_2))
    labels = np.empty(graph.n_vertices, dtype=np.int64)
    # Deterministic label order: by smallest member vertex.
    for new_label, members in enumerate(
        sorted(clusters, key=lambda c: int(c[0]))
    ):
        labels[members] = new_label
    return ClusterPartition(graph, labels)


def chain_of_cliques(
    clique_size: int, n_cliques: int
) -> "tuple[Graph, ClusterPartition]":
    """``n_cliques`` cliques in a path, consecutive pairs joined by 1 edge.

    The canonical multi-cut instance: every adjacent pair of clusters is a
    sparse cut of its own.
    """
    if clique_size < 2:
        raise PartitionError(f"clique_size must be >= 2, got {clique_size}")
    if n_cliques < 2:
        raise PartitionError(f"n_cliques must be >= 2, got {n_cliques}")
    import itertools

    edges: "list[tuple[int, int]]" = []
    labels = np.empty(clique_size * n_cliques, dtype=np.int64)
    for c in range(n_cliques):
        offset = c * clique_size
        labels[offset : offset + clique_size] = c
        edges.extend(
            (offset + a, offset + b)
            for a, b in itertools.combinations(range(clique_size), 2)
        )
        if c + 1 < n_cliques:
            # Bridge: last vertex of clique c to first of clique c+1.
            edges.append((offset + clique_size - 1, offset + clique_size))
    graph = Graph(clique_size * n_cliques, edges)
    return graph, ClusterPartition(graph, labels)
