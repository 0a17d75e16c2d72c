"""Geometric networks: positioned graphs and greedy geographic routing.

Substrate for the geographic-gossip comparison (the paper's reference [6],
Narayanan PODC 2007, builds on geographic gossip over random geometric
graphs).  A :class:`GeometricNetwork` couples a unit-square point set with
its radius graph and provides the greedy forwarding primitive those
protocols assume: hop to the neighbor closest to the target, stop when no
neighbor improves (a void) or the target is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.util.rng import as_generator


@dataclass(frozen=True)
class GeometricNetwork:
    """A graph whose vertices carry unit-square positions."""

    graph: Graph
    positions: np.ndarray

    def __post_init__(self) -> None:
        array = np.asarray(self.positions, dtype=np.float64)
        if array.shape != (self.graph.n_vertices, 2):
            raise GraphError(
                f"positions must have shape ({self.graph.n_vertices}, 2), "
                f"got {array.shape}"
            )
        object.__setattr__(self, "positions", array)

    def distance(self, u: int, v: int) -> float:
        """Euclidean distance between two vertices."""
        return float(np.linalg.norm(self.positions[u] - self.positions[v]))

    def greedy_route(self, source: int, target: int) -> "list[int] | None":
        """Greedy geographic route ``source -> target``.

        Each hop moves to the neighbor strictly closest to the target's
        position.  Returns the vertex path including both endpoints, or
        ``None`` when greedy forwarding hits a void (no neighbor improves).
        On a connected random geometric graph above the connectivity
        threshold, voids are rare — the standard geographic-gossip
        assumption.
        """
        for vertex in (source, target):
            if not 0 <= vertex < self.graph.n_vertices:
                raise GraphError(
                    f"vertex {vertex} out of range for "
                    f"{self.graph.n_vertices} vertices"
                )
        path = [source]
        current = source
        goal = self.positions[target]
        current_distance = float(np.linalg.norm(self.positions[current] - goal))
        while current != target:
            neighbors = self.graph.neighbors(current)
            if len(neighbors) == 0:
                return None
            offsets = self.positions[neighbors] - goal
            distances = np.sqrt(np.sum(offsets * offsets, axis=1))
            best = int(np.argmin(distances))
            if distances[best] >= current_distance:
                return None  # greedy void
            current = int(neighbors[best])
            current_distance = float(distances[best])
            path.append(current)
        return path


def random_geometric_network(
    n: int,
    radius: "float | None" = None,
    *,
    seed: "int | np.random.Generator | None" = None,
    max_attempts: int = 200,
) -> GeometricNetwork:
    """A connected random geometric network on the unit square.

    ``radius`` defaults to twice the connectivity threshold
    ``sqrt(log n / n)`` — dense enough that greedy routing almost never
    voids, matching the geographic-gossip setting.
    """
    if n < 2:
        raise GraphError(f"need at least two vertices, got {n}")
    if radius is None:
        radius = 2.0 * float(np.sqrt(np.log(n) / n))
    if radius <= 0:
        raise GraphError(f"radius must be positive, got {radius}")
    rng = as_generator(seed)
    for _ in range(max_attempts):
        points = rng.random((n, 2))
        deltas = points[:, None, :] - points[None, :, :]
        distances = np.sqrt(np.sum(deltas**2, axis=-1))
        us, vs = np.nonzero(np.triu(distances < radius, k=1))
        graph = Graph(n, np.stack([us, vs], axis=1))
        if graph.is_connected():
            return GeometricNetwork(graph=graph, positions=points)
    raise GraphError(
        f"could not sample a connected geometric network "
        f"(n={n}, radius={radius:.3f}) in {max_attempts} attempts"
    )
