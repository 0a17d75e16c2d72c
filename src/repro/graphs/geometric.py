"""Geometric networks: positioned graphs and greedy geographic routing.

Substrate for the geographic-gossip comparison (the paper's reference [6],
Narayanan PODC 2007, builds on geographic gossip over random geometric
graphs).  A :class:`GeometricNetwork` couples a unit-square point set with
its radius graph and provides the greedy forwarding primitive those
protocols assume: hop to the neighbor closest to the target, stop when no
neighbor improves (a void) or the target is reached.  Geographic gossip
needs only a route's length, so :meth:`GeometricNetwork.hop_count`
answers from cached per-target rows instead of walking the route.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.util.rng import as_generator

#: Neighbor distances gathered per block of targets when building the hop
#: table (2 MB of float64).
_HOP_BLOCK_ENTRIES = 1 << 18

#: Relative gap between a vertex's distance to the target and its best
#: neighbor's under which the first hop is re-decided with the norm.  The
#: norm and the sqrt-sum differ by an ulp or two, far inside this margin.
_FIRST_HOP_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GeometricNetwork:
    """A graph whose vertices carry unit-square positions."""

    graph: Graph
    positions: np.ndarray
    #: The table :meth:`hop_count` answers from; a cache, so it stays out
    #: of pickles, ``==`` and ``repr``.
    _hop_table: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def hop_count(self, source: int, target: int) -> "int | None":
        """Hops of the greedy geographic route ``source -> target``.

        Each hop moves to the neighbor strictly closest to the target's
        position (ties go to the first neighbor in CSR order).  Returns
        ``0`` when ``source == target`` and ``None`` when greedy
        forwarding hits a void (no neighbor improves).  On a connected
        random geometric graph above the connectivity threshold, voids are
        rare — the standard geographic-gossip assumption.

        The first call builds an ``(n, n)`` int32 table of every answer
        and caches it on the instance.
        """
        n = self.graph.n_vertices
        for vertex in (source, target):
            if not 0 <= vertex < n:
                raise GraphError(f"vertex {vertex} out of range for {n} vertices")
        if self._hop_table is None:
            object.__setattr__(self, "_hop_table", self._build_hop_table())
        hops = int(self._hop_table[target, source])
        return None if hops < 0 else hops

    def _build_hop_table(self) -> np.ndarray:
        """``table[t, v]``: greedy hops from ``v`` to ``t``, -1 on a void.

        Every distance is the routing rule's own
        ``sqrt(sum(offset * offset))``, so each hop's comparison has the
        bits a hop-by-hop walk would see.  The one exception is a route's
        first hop, which is judged against ``np.linalg.norm`` of the
        source's offset: that can differ from the sqrt-sum by an ulp, so
        where the two are within ``_FIRST_HOP_TOLERANCE`` the first hop is
        re-decided with the norm.  Targets go a block at a time.
        """
        n = self.graph.n_vertices
        # Neighbors padded to a rectangle in CSR order; the padding points
        # at a sentinel column ``n`` that is infinitely far from any target.
        width = max(int(self.graph.degrees.max()), 1)
        padded = np.full((n, width), n, dtype=np.intp)
        for vertex in range(n):
            neighbors = self.graph.neighbors(vertex)
            padded[vertex, : len(neighbors)] = neighbors

        table = np.empty((n, n), dtype=np.int32)
        block = max(1, _HOP_BLOCK_ENTRIES // (n * width))
        reach = np.empty((block, n, width))
        for first in range(0, n, block):
            targets = np.arange(first, min(first + block, n))
            rows = len(targets)
            goal = self.positions[targets]
            offsets = self.positions[None, :, :] - goal[:, None, :]
            distance = np.sqrt(np.sum(offsets * offsets, axis=2))
            far = np.concatenate([distance, np.full((rows, 1), np.inf)], axis=1)
            # Every index is in range; "clip" only skips np.take's buffering.
            np.take(far, padded, axis=1, out=reach[:rows], mode="clip")
            best = np.argmin(reach[:rows], axis=2)  # first minimum: CSR order
            next_hop = padded[np.arange(n), best]
            best_distance = np.take_along_axis(far, next_hop, axis=1)
            advances = best_distance < distance

            # Pointer jumping over flat (row, vertex) indices: follow each
            # vertex's chain of strict improvements to the target or to the
            # void where it stops.
            offset = np.arange(0, rows * n, n)[:, None]
            pointer = (np.where(advances, next_hop, np.arange(n)) + offset).ravel()
            hops = advances.astype(np.int32).ravel()
            while True:
                following = pointer[pointer]
                if np.array_equal(following, pointer):
                    break
                hops += hops[pointer]
                pointer = following
            reached = pointer.reshape(rows, n) == (targets[:, None] + offset)
            chain = np.where(reached, hops.reshape(rows, n), np.int32(-1))

            answers = table[first : first + rows]
            answers[:] = chain
            near = np.abs(best_distance - distance) <= _FIRST_HOP_TOLERANCE * distance
            for i, v in zip(*np.nonzero(near)):
                first_hop = best_distance[i, v] < np.linalg.norm(
                    self.positions[v] - goal[i]
                )
                after = chain[i, next_hop[i, v]]
                answers[i, v] = after + 1 if first_hop and after >= 0 else -1
            answers[np.arange(rows), targets] = 0
        return table

    def __getstate__(self) -> dict:
        # The hop table is a cache: pickle only the defining state.
        return {k: v for k, v in self.__dict__.items() if k != "_hop_table"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _hop_table=None)


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
