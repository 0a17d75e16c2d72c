"""Immutable undirected graph with CSR adjacency.

This is the substrate every other subsystem builds on.  Design goals:

* **Immutability** — a :class:`Graph` never changes after construction, so
  simulators, partitions and spectral caches can share one instance safely.
* **Array-first** — vertices are ``0..n-1``; edges live in an ``(m, 2)``
  int64 array with each row normalized to ``u < v``.  The simulation engine
  indexes these arrays millions of times per run, so adjacency is stored in
  CSR form (``indptr`` + flat neighbor/edge-id arrays) rather than dicts.
* **Strict validation** — self-loops and duplicate edges are construction
  errors, not silent merges; the paper's model assigns one Poisson clock per
  edge, so edge multiplicity must be unambiguous.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import EdgeError, VertexError


class Graph:
    """An immutable, simple, undirected graph on vertices ``0..n-1``.

    Parameters
    ----------
    n_vertices:
        Number of vertices.  Isolated vertices are allowed (they simply
        never tick), but most topology builders produce connected graphs.
    edges:
        Iterable of ``(u, v)`` pairs, ``u != v``.  Order within a pair and
        among pairs does not matter; rows are normalized to ``u < v`` and
        stored in sorted order so the *edge index* of a pair is canonical.

    Raises
    ------
    EdgeError
        On self-loops, duplicate edges, or malformed pairs.
    VertexError
        On endpoints outside ``[0, n_vertices)``.
    """

    __slots__ = (
        "_n",
        "_edges",
        "_indptr",
        "_adj_vertices",
        "_adj_edges",
        "_edge_lookup",
        "_degrees",
    )

    def __init__(self, n_vertices: int, edges: Iterable[Sequence[int]]) -> None:
        if n_vertices < 0:
            raise ValueError(f"n_vertices must be non-negative, got {n_vertices}")
        self._n = int(n_vertices)

        edge_array = self._normalize_edges(edges)
        self._edges = edge_array
        self._edges.setflags(write=False)

        self._degrees = np.bincount(edge_array.ravel(), minlength=self._n).astype(
            np.int64, copy=False
        )
        self._degrees.setflags(write=False)

        self._build_csr()
        self._edge_lookup = dict(
            zip(zip(*edge_array.T.tolist()), range(len(edge_array)))
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _normalize_edges(self, edges: Iterable[Sequence[int]]) -> np.ndarray:
        """Sorted ``(m, 2)`` rows ``u < v``, validated.

        Integer ``(m, 2)`` input is normalized with array operations; any
        other input, or input that breaks a rule, goes through
        :meth:`_normalize_edges_checked`, so every error keeps the type and
        message of the per-edge check (which also decides which bad pair
        is reported first).
        """
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            pairs = np.asarray(edges)
        except (ValueError, TypeError):
            return self._normalize_edges_checked(edges)
        if pairs.dtype.kind not in "iu" or pairs.ndim != 2 or pairs.shape[1] != 2:
            return self._normalize_edges_checked(edges)
        pairs = pairs.astype(np.int64, copy=False)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        order = np.lexsort((hi, lo))
        array = np.stack([lo[order], hi[order]], axis=1)
        if array.size and (
            int(array[0, 0]) < 0
            or int(hi.max()) >= self._n
            or np.any(lo == hi)
            or np.any((array[1:] == array[:-1]).all(axis=1))
        ):
            return self._normalize_edges_checked(edges)
        return array

    def _normalize_edges_checked(
        self, edges: Iterable[Sequence[int]]
    ) -> np.ndarray:
        """The per-edge normalization: raises on the first bad pair."""
        rows: list[tuple[int, int]] = []
        for pair in edges:
            try:
                u, v = int(pair[0]), int(pair[1])
            except (TypeError, IndexError, ValueError) as exc:
                raise EdgeError(
                    f"malformed edge {pair!r}; expected a (u, v) pair"
                ) from exc
            if u == v:
                raise EdgeError(f"self-loop ({u}, {v}) is not allowed")
            for endpoint in (u, v):
                if not 0 <= endpoint < self._n:
                    raise VertexError(endpoint, self._n)
            if u > v:
                u, v = v, u
            rows.append((u, v))
        if not rows:
            return np.empty((0, 2), dtype=np.int64)
        array = np.array(sorted(rows), dtype=np.int64)
        duplicates = np.all(array[1:] == array[:-1], axis=1) if len(array) > 1 else []
        if np.any(duplicates):
            first = int(np.argmax(duplicates))
            u, v = array[first]
            raise EdgeError(f"duplicate edge ({u}, {v})")
        return array

    def _build_csr(self) -> None:
        """CSR adjacency; each vertex lists its edges in edge-id order."""
        m = len(self._edges)
        indptr = np.zeros(self._n + 1, dtype=np.int64)
        indptr[1:] = np.cumsum(self._degrees)
        source = np.concatenate([self._edges[:, 0], self._edges[:, 1]])
        target = np.concatenate([self._edges[:, 1], self._edges[:, 0]])
        edge_ids = np.tile(np.arange(m, dtype=np.int64), 2)
        order = np.lexsort((edge_ids, source))
        self._indptr = indptr
        self._adj_vertices = target[order]
        self._adj_edges = edge_ids[order]
        for array in (self._indptr, self._adj_vertices, self._adj_edges):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def n_edges(self) -> int:
        """Number of edges."""
        return len(self._edges)

    @property
    def edges(self) -> np.ndarray:
        """Read-only ``(m, 2)`` array of edges, each row ``u < v``, sorted."""
        return self._edges

    @property
    def degrees(self) -> np.ndarray:
        """Read-only array of vertex degrees."""
        return self._degrees

    def degree(self, vertex: int) -> int:
        """Degree of ``vertex``."""
        self._check_vertex(vertex)
        return int(self._degrees[vertex])

    def neighbors(self, vertex: int) -> np.ndarray:
        """Read-only array of the neighbors of ``vertex``."""
        self._check_vertex(vertex)
        return self._adj_vertices[self._indptr[vertex] : self._indptr[vertex + 1]]

    def incident_edges(self, vertex: int) -> np.ndarray:
        """Read-only array of edge ids incident to ``vertex``."""
        self._check_vertex(vertex)
        return self._adj_edges[self._indptr[vertex] : self._indptr[vertex + 1]]

    def edge_endpoints(self, edge_id: int) -> tuple[int, int]:
        """The ``(u, v)`` endpoints of edge ``edge_id`` with ``u < v``."""
        if not 0 <= edge_id < self.n_edges:
            raise EdgeError(
                f"edge id {edge_id} out of range for graph with {self.n_edges} edges"
            )
        u, v = self._edges[edge_id]
        return int(u), int(v)

    def edge_id(self, u: int, v: int) -> int:
        """Canonical edge id of the edge ``{u, v}``.

        Raises :class:`EdgeError` if no such edge exists.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        key = (u, v) if u < v else (v, u)
        try:
            return self._edge_lookup[key]
        except KeyError:
            raise EdgeError(f"no edge between {u} and {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the edge ``{u, v}`` exists."""
        if u == v or not (0 <= u < self._n and 0 <= v < self._n):
            return False
        key = (u, v) if u < v else (v, u)
        return key in self._edge_lookup

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self._n:
            raise VertexError(vertex, self._n)

    # ------------------------------------------------------------------
    # traversal and structure
    # ------------------------------------------------------------------

    def bfs_order(self, source: int) -> np.ndarray:
        """Vertices reachable from ``source`` in BFS order (numpy array)."""
        self._check_vertex(source)
        seen = np.zeros(self._n, dtype=bool)
        seen[source] = True
        frontier = [source]
        order = [source]
        while frontier:
            next_frontier: list[int] = []
            for vertex in frontier:
                lo, hi = self._indptr[vertex], self._indptr[vertex + 1]
                for neighbor in self._adj_vertices[lo:hi]:
                    if not seen[neighbor]:
                        seen[neighbor] = True
                        next_frontier.append(int(neighbor))
                        order.append(int(neighbor))
            frontier = next_frontier
        return np.array(order, dtype=np.int64)

    def is_connected(self) -> bool:
        """Whether the graph is connected (vacuously true for n <= 1)."""
        if self._n <= 1:
            return True
        return len(self.bfs_order(0)) == self._n

    def subgraph(self, vertices: Sequence[int]) -> "tuple[Graph, np.ndarray]":
        """Induced subgraph on ``vertices``.

        Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original
        vertex id of subgraph vertex ``i``.  Vertices must be distinct.
        """
        vertex_array = np.asarray(vertices)
        if vertex_array.dtype.kind == "i" and vertex_array.ndim == 1:
            vertex_array = np.sort(vertex_array.astype(np.int64))
        else:
            vertex_array = np.asarray(
                sorted(int(v) for v in vertices), dtype=np.int64
            )
        if np.any(vertex_array[1:] == vertex_array[:-1]):
            raise VertexError(int(vertex_array[0]), self._n)
        out_of_range = (vertex_array < 0) | (vertex_array >= self._n)
        if np.any(out_of_range):
            raise VertexError(int(vertex_array[np.argmax(out_of_range)]), self._n)
        new_id = np.full(self._n, -1, dtype=np.int64)
        new_id[vertex_array] = np.arange(len(vertex_array), dtype=np.int64)
        relabelled = new_id[self._edges]
        inside = (relabelled >= 0).all(axis=1)
        return Graph(len(vertex_array), relabelled[inside]), vertex_array

    def adjacency_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` 0/1 adjacency matrix (float64).

        Intended for analysis on small/medium graphs; the simulator never
        materializes this.
        """
        matrix = np.zeros((self._n, self._n), dtype=np.float64)
        if self.n_edges:
            matrix[self._edges[:, 0], self._edges[:, 1]] = 1.0
            matrix[self._edges[:, 1], self._edges[:, 0]] = 1.0
        return matrix

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self._n}, n_edges={self.n_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._edges, other._edges)

    def __hash__(self) -> int:
        return hash((self._n, self._edges.tobytes()))
