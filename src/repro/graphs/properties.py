"""Structural graph properties: connectivity, diameter, density."""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import DisconnectedGraphError
from repro.graphs.graph import Graph


def is_connected(graph: Graph) -> bool:
    """Whether ``graph`` is connected (delegates to the graph itself)."""
    return graph.is_connected()


def shortest_path_lengths(graph: Graph, source: int) -> np.ndarray:
    """BFS distances from ``source``; unreachable vertices get -1."""
    distances = np.full(graph.n_vertices, -1, dtype=np.int64)
    distances[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbor in graph.neighbors(vertex):
            if distances[neighbor] < 0:
                distances[neighbor] = distances[vertex] + 1
                queue.append(int(neighbor))
    return distances


def diameter(graph: Graph) -> int:
    """Exact diameter via all-sources BFS (O(n m); fine for analysis sizes).

    Raises :class:`DisconnectedGraphError` on disconnected input.
    """
    if graph.n_vertices == 0:
        raise DisconnectedGraphError("diameter of the empty graph is undefined")
    best = 0
    for source in range(graph.n_vertices):
        distances = shortest_path_lengths(graph, source)
        if np.any(distances < 0):
            raise DisconnectedGraphError("diameter requires a connected graph")
        best = max(best, int(distances.max()))
    return best


def density(graph: Graph) -> float:
    """Edge density ``m / (n choose 2)`` (0 for graphs with < 2 vertices)."""
    n = graph.n_vertices
    if n < 2:
        return 0.0
    return graph.n_edges / (n * (n - 1) / 2)
