"""Standard graph families used as building blocks for sparse-cut instances.

Deterministic families (complete, grid) take only size parameters.
Random families (Erdős–Rényi, random-regular) take a seed or generator and
retry until the sample is connected (bounded number of attempts), because
every experiment in the paper assumes connected subgraphs.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.util.rng import as_generator

#: Attempts before a random family gives up producing a connected sample.
_MAX_CONNECTIVITY_ATTEMPTS = 200


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n`` (the paper's `G'_1`, `G'_2` halves)."""
    _check_size(n, minimum=1)
    return Graph(n, itertools.combinations(range(n), 2))


def grid_graph(rows: int, cols: int) -> Graph:
    """The ``rows x cols`` 2-D lattice; vertex ``(r, c)`` is ``r * cols + c``."""
    _check_size(rows, minimum=1, name="rows")
    _check_size(cols, minimum=1, name="cols")
    edges = []
    for r in range(rows):
        for c in range(cols):
            vertex = r * cols + c
            if c + 1 < cols:
                edges.append((vertex, vertex + 1))
            if r + 1 < rows:
                edges.append((vertex, vertex + cols))
    return Graph(rows * cols, edges)


def erdos_renyi_graph(
    n: int,
    p: float,
    *,
    seed: "int | np.random.Generator | None" = None,
    require_connected: bool = True,
) -> Graph:
    """``G(n, p)`` random graph, resampled until connected by default."""
    _check_size(n, minimum=1)
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = as_generator(seed)
    for _ in range(_MAX_CONNECTIVITY_ATTEMPTS):
        mask = rng.random(n * (n - 1) // 2) < p
        pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
        graph = Graph(n, pairs[mask])
        if not require_connected or graph.is_connected():
            return graph
    raise GraphError(
        f"could not sample a connected G({n}, {p}) in "
        f"{_MAX_CONNECTIVITY_ATTEMPTS} attempts; increase p"
    )


def random_regular_graph(
    n: int,
    degree: int,
    *,
    seed: "int | np.random.Generator | None" = None,
    require_connected: bool = True,
) -> Graph:
    """A uniform-ish random ``degree``-regular graph (Steger-Wormald style).

    Stubs are matched one pair at a time, each time choosing uniformly
    among the *suitable* pairs (distinct vertices, edge not already
    present); if the process paints itself into a corner it restarts.
    Unlike naive pairing-model rejection — whose acceptance probability is
    ``~exp(-(d^2-1)/4)``, hopeless already at ``d = 8`` — this succeeds in
    a handful of restarts for every ``d << n``.  Random regular graphs are
    expanders with high probability, which is exactly the "internally well
    connected" hypothesis of the paper's Theorem 2.
    """
    _check_size(n, minimum=2)
    if degree < 1 or degree >= n:
        raise GraphError(f"degree must be in [1, n-1], got {degree} for n={n}")
    if (n * degree) % 2 != 0:
        raise GraphError(f"n * degree must be even, got n={n}, degree={degree}")
    rng = as_generator(seed)
    for _ in range(_MAX_CONNECTIVITY_ATTEMPTS):
        edges = _steger_wormald_attempt(n, degree, rng)
        if edges is None:
            continue
        graph = Graph(n, edges)
        if not require_connected or graph.is_connected():
            return graph
    raise GraphError(
        f"could not sample a simple connected {degree}-regular graph on {n} "
        f"vertices in {_MAX_CONNECTIVITY_ATTEMPTS} attempts"
    )


def _steger_wormald_attempt(
    n: int, degree: int, rng: np.random.Generator
) -> "list[tuple[int, int]] | None":
    """One attempt at a simple regular pairing; None if it gets stuck."""
    remaining = np.full(n, degree, dtype=np.int64)
    adjacency: list[set[int]] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []
    target = n * degree // 2
    while len(edges) < target:
        candidates = np.flatnonzero(remaining > 0)
        # Draw stub-weighted endpoint pairs; retry locally a few times
        # before declaring the attempt stuck.
        placed = False
        for _ in range(200):
            weights = remaining[candidates].astype(np.float64)
            probabilities = weights / weights.sum()
            u, v = rng.choice(candidates, size=2, p=probabilities)
            u, v = int(u), int(v)
            if u == v or v in adjacency[u]:
                continue
            adjacency[u].add(v)
            adjacency[v].add(u)
            remaining[u] -= 1
            remaining[v] -= 1
            edges.append((u, v) if u < v else (v, u))
            placed = True
            break
        if not placed:
            return None
    return edges


def _check_size(n: int, *, minimum: int, name: str = "n") -> None:
    if n < minimum:
        raise GraphError(f"{name} must be at least {minimum}, got {n}")
