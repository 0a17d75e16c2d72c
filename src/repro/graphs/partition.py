"""Two-way vertex partitions and their cuts.

The paper's setting is a connected graph ``G`` split into ``G1 = (V1, E1)``
and ``G2 = (V2, E2)`` with cut edges ``E12`` between them, ``n1 <= n2``.
:class:`Partition` captures exactly that: given a side assignment it exposes
the cut edge set, the induced subgraphs (with vertex maps back to ``G``),
and the standard sparsity measures.  Side 0 is always the smaller side, so
``n1``/``n2`` match the paper's convention without callers tracking it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import PartitionError
from repro.graphs.graph import Graph


class Partition:
    """A two-way partition ``(V1, V2)`` of the vertices of a graph.

    Parameters
    ----------
    graph:
        The underlying graph.
    side:
        Length-``n`` array of 0/1 side labels.  Both sides must be
        non-empty.  Labels are normalized so side 0 is the smaller side
        (``n1 <= n2``); ties keep the caller's labelling.
    """

    __slots__ = (
        "_graph",
        "_side",
        "_vertices_1",
        "_vertices_2",
        "_cut_edge_ids",
        "_internal_edge_ids_1",
        "_internal_edge_ids_2",
        "_subgraphs",
        "_sides_connected",
    )

    #: Slots holding caches of derived facts, left out of pickles.
    _CACHE_SLOTS = ("_subgraphs", "_sides_connected")

    def __init__(self, graph: Graph, side: Sequence[int]) -> None:
        labels = np.array(side, dtype=np.int64)  # own copy: frozen below
        if labels.shape != (graph.n_vertices,):
            raise PartitionError(
                f"side must have length {graph.n_vertices}, got {labels.shape}"
            )
        unique = np.unique(labels)
        if not np.all(np.isin(unique, (0, 1))):
            raise PartitionError(f"side labels must be 0 or 1, found {unique}")
        if len(unique) < 2:
            raise PartitionError("both sides of a partition must be non-empty")
        if int(np.sum(labels == 0)) > int(np.sum(labels == 1)):
            labels = 1 - labels

        self._graph = graph
        self._side = labels
        self._side.setflags(write=False)
        self._vertices_1 = np.flatnonzero(labels == 0)
        self._vertices_2 = np.flatnonzero(labels == 1)

        edges = graph.edges
        if graph.n_edges:
            end_sides = labels[edges]
            crossing = end_sides[:, 0] != end_sides[:, 1]
            in_side_1 = ~crossing & (end_sides[:, 0] == 0)
            in_side_2 = ~crossing & (end_sides[:, 0] == 1)
            self._cut_edge_ids = np.flatnonzero(crossing)
            self._internal_edge_ids_1 = np.flatnonzero(in_side_1)
            self._internal_edge_ids_2 = np.flatnonzero(in_side_2)
        else:
            empty = np.empty(0, dtype=np.int64)
            self._cut_edge_ids = empty
            self._internal_edge_ids_1 = empty.copy()
            self._internal_edge_ids_2 = empty.copy()
        for array in (
            self._vertices_1,
            self._vertices_2,
            self._cut_edge_ids,
            self._internal_edge_ids_1,
            self._internal_edge_ids_2,
        ):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_vertex_set(cls, graph: Graph, subset: Sequence[int]) -> "Partition":
        """Partition into ``subset`` and its complement."""
        side = np.ones(graph.n_vertices, dtype=np.int64)
        subset_array = np.asarray(list(subset), dtype=np.int64)
        if subset_array.size == 0 or subset_array.size == graph.n_vertices:
            raise PartitionError("subset must be a proper non-empty vertex subset")
        side[subset_array] = 0
        return cls(graph, side)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    @property
    def side(self) -> np.ndarray:
        """Read-only 0/1 side label per vertex (side 0 is the smaller side)."""
        return self._side

    @property
    def vertices_1(self) -> np.ndarray:
        """Vertices of ``V1`` (the smaller side), sorted."""
        return self._vertices_1

    @property
    def vertices_2(self) -> np.ndarray:
        """Vertices of ``V2`` (the larger side), sorted."""
        return self._vertices_2

    @property
    def n1(self) -> int:
        """``|V1|`` (the paper's ``n1``; always ``<= n2``)."""
        return len(self._vertices_1)

    @property
    def n2(self) -> int:
        """``|V2|``."""
        return len(self._vertices_2)

    @property
    def cut_edge_ids(self) -> np.ndarray:
        """Edge ids of the cut ``E12``, sorted."""
        return self._cut_edge_ids

    @property
    def cut_size(self) -> int:
        """``|E12|``, the number of edges crossing the cut."""
        return len(self._cut_edge_ids)

    def internal_edge_ids(self, side: int) -> np.ndarray:
        """Edge ids internal to side 0 (``E1``) or side 1 (``E2``)."""
        if side == 0:
            return self._internal_edge_ids_1
        if side == 1:
            return self._internal_edge_ids_2
        raise PartitionError(f"side must be 0 or 1, got {side}")

    def side_of(self, vertex: int) -> int:
        """Side label (0 or 1) of ``vertex``."""
        if not 0 <= vertex < self._graph.n_vertices:
            raise PartitionError(
                f"vertex {vertex} out of range for graph with "
                f"{self._graph.n_vertices} vertices"
            )
        return int(self._side[vertex])

    # ------------------------------------------------------------------
    # sparsity measures
    # ------------------------------------------------------------------

    @property
    def sparsity(self) -> float:
        """Vertex-normalized cut sparsity ``|E12| / min(n1, n2)``.

        The reciprocal of the paper's Theorem-1 bound: convex algorithms
        need time ``Omega(min(n1, n2) / |E12|) = Omega(1 / sparsity)``.
        """
        return self.cut_size / self.n1

    @property
    def conductance(self) -> float:
        """Edge conductance ``|E12| / min(vol(V1), vol(V2))``.

        ``vol`` counts edge endpoints (degree sum).  Standard Cheeger-style
        measure used by the sweep-cut detector.
        """
        degrees = self._graph.degrees
        vol_1 = int(degrees[self._vertices_1].sum())
        vol_2 = int(degrees[self._vertices_2].sum())
        smaller = min(vol_1, vol_2)
        if smaller == 0:
            return float("inf")
        return self.cut_size / smaller

    @property
    def balance(self) -> float:
        """``n1 / n`` in ``(0, 1/2]``; 1/2 means a perfectly balanced cut."""
        return self.n1 / self._graph.n_vertices

    # ------------------------------------------------------------------
    # induced subgraphs
    # ------------------------------------------------------------------

    def subgraphs(self) -> "tuple[Graph, np.ndarray, Graph, np.ndarray]":
        """Induced subgraphs ``(G1, map1, G2, map2)``.

        ``map1[i]`` is the original vertex id of ``G1``'s vertex ``i`` (and
        likewise ``map2``; both read-only).  These are the graphs whose
        vanilla averaging times ``Tvan(G1)``, ``Tvan(G2)`` parameterize
        Algorithm A.  Computed once, like :meth:`sides_connected`.
        """
        try:
            return self._subgraphs
        except AttributeError:
            g1, map1 = self._graph.subgraph(self._vertices_1)
            g2, map2 = self._graph.subgraph(self._vertices_2)
            map1.setflags(write=False)
            map2.setflags(write=False)
            self._subgraphs = (g1, map1, g2, map2)
            return self._subgraphs

    def sides_connected(self) -> tuple[bool, bool]:
        """Whether each induced side is internally connected.

        Computed once: the partition is immutable, and Algorithm A checks
        it for every replicate it is built for.
        """
        try:
            return self._sides_connected
        except AttributeError:
            g1, _, g2, _ = self.subgraphs()
            self._sides_connected = (g1.is_connected(), g2.is_connected())
            return self._sides_connected

    def require_connected_sides(self) -> None:
        """Raise :class:`PartitionError` unless both sides are connected.

        The paper's setting requires ``G1`` and ``G2`` to be connected
        (vanilla gossip inside a disconnected side cannot average it).
        """
        ok1, ok2 = self.sides_connected()
        if not (ok1 and ok2):
            broken = [name for name, ok in (("G1", ok1), ("G2", ok2)) if not ok]
            raise PartitionError(
                f"partition sides {', '.join(broken)} are not internally connected"
            )

    def cut_edge_endpoints(self) -> np.ndarray:
        """``(|E12|, 2)`` array of cut-edge endpoints, V1 endpoint first."""
        if self.cut_size == 0:
            return np.empty((0, 2), dtype=np.int64)
        pairs = self._graph.edges[self._cut_edge_ids]
        swapped = self._side[pairs[:, 0]] == 1
        out = pairs.copy()
        out[swapped] = out[swapped][:, ::-1]
        return out

    def __getstate__(self) -> "tuple[None, dict]":
        # Pickle only the defining state, never the caches, so a pickle's
        # bytes do not depend on whether a cache was filled.
        return None, {
            name: getattr(self, name)
            for name in Partition.__slots__
            if name not in Partition._CACHE_SLOTS
        }

    def __repr__(self) -> str:
        return (
            f"Partition(n1={self.n1}, n2={self.n2}, cut_size={self.cut_size}, "
            f"sparsity={self.sparsity:.4g})"
        )
