"""Reference implementations and fixture builders for the test suite.

The library ships only definitions that a report, an example, a
benchmark or perfbench reaches (``test_every_public_definition_has_a_caller``
in ``tests/unit/test_public_api.py`` enforces it).  What the tests still
need from the retired API lives here, in one module:

* fixture graphs (paths, cycles, stars, hypercubes) and the
  ``bridged_pair`` family dispatcher;
* exact references the library is checked against: closed-form
  algebraic connectivities, vanilla gossip's expected dynamics, a BFS
  component split, a round-robin clock and the hop-by-hop greedy route;
* retired helpers, each kept only for the tests that exercise it.  Delete
  a retired helper together with its tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import scipy.linalg

from repro.algorithms.vanilla import VanillaGossip
from repro.analysis.potential import decompose
from repro.errors import AnalysisError, ExperimentError, GraphError
from repro.engine.recorder import TraceRecorder
from repro.engine.simulator import Simulator
from repro.graphs.composites import (
    BridgedPair,
    two_cliques,
    two_erdos_renyi,
    two_expanders,
    two_grids,
)
from repro.graphs.geometric import GeometricNetwork
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.graphs.spectral import algebraic_connectivity, laplacian_matrix
from repro.util.mathx import fit_power_law, safe_log
from repro.util.rng import as_generator, spawn_generators

#: Attempts before a random family gives up producing a connected sample.
_MAX_CONNECTIVITY_ATTEMPTS = 200


def _check_size(n: int, *, minimum: int, name: str = "n") -> None:
    if n < minimum:
        raise GraphError(f"{name} must be at least {minimum}, got {n}")


# ----------------------------------------------------------------------
# fixture graphs
# ----------------------------------------------------------------------


def path_graph(n: int) -> Graph:
    """The path ``P_n`` — the poorest-connected graph, a stress baseline."""
    _check_size(n, minimum=1)
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """The cycle ``C_n`` (n >= 3)."""
    _check_size(n, minimum=3)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((n - 1, 0))
    return Graph(n, edges)


def star_graph(n: int) -> Graph:
    """The star ``S_n``: hub 0 joined to ``n - 1`` leaves (n >= 2)."""
    _check_size(n, minimum=2)
    return Graph(n, ((0, i) for i in range(1, n)))


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-dimensional Boolean hypercube ``Q_d``."""
    _check_size(dimension, minimum=1, name="dimension")
    n = 1 << dimension
    edges = []
    for vertex in range(n):
        for bit in range(dimension):
            neighbor = vertex ^ (1 << bit)
            if vertex < neighbor:
                edges.append((vertex, neighbor))
    return Graph(n, edges)


def bridged_pair(
    family: str,
    n1: int,
    n2: "int | None" = None,
    *,
    n_bridges: int = 1,
    seed: "int | np.random.Generator | None" = None,
    **family_kwargs: object,
) -> BridgedPair:
    """Dispatch to a named sparse-cut family.

    ``family`` is one of ``"clique"``, ``"expander"``, ``"grid"``, ``"er"``.
    For ``"grid"``, ``n1`` is interpreted as the total side size and is
    factored into the squarest ``rows x cols``.
    """
    builders: dict[str, Callable[..., BridgedPair]] = {
        "clique": two_cliques,
        "expander": two_expanders,
        "er": two_erdos_renyi,
    }
    if family == "grid":
        rows, cols = _squarest_factorization(n1)
        return two_grids(rows, cols, n_bridges=n_bridges, seed=seed)
    if family not in builders:
        raise GraphError(
            f"unknown family {family!r}; expected one of "
            f"{sorted(builders) + ['grid']}"
        )
    return builders[family](
        n1, n2, n_bridges=n_bridges, seed=seed, **family_kwargs
    )


def _squarest_factorization(n: int) -> tuple[int, int]:
    """Factor ``n`` as ``rows * cols`` with the sides as equal as possible."""
    if n < 1:
        raise GraphError(f"size must be positive, got {n}")
    best = (1, n)
    for rows in range(1, int(n**0.5) + 1):
        if n % rows == 0:
            best = (rows, n // rows)
    return best


# ----------------------------------------------------------------------
# exact references
# ----------------------------------------------------------------------


def exact_algebraic_connectivity(family: str, n: int) -> float:
    """``lambda_2(L)`` for named families.

    Supported: ``complete`` (= n), ``path`` (= 2(1 - cos(pi/n))),
    ``cycle`` (= 2(1 - cos(2 pi/n))), ``star`` (= 1),
    ``hypercube`` (= 2, n = dimension).
    """
    if n < 2:
        raise AnalysisError(f"need n >= 2, got {n}")
    if family == "complete":
        return float(n)
    if family == "path":
        return 2.0 * (1.0 - math.cos(math.pi / n))
    if family == "cycle":
        return 2.0 * (1.0 - math.cos(2.0 * math.pi / n))
    if family == "star":
        return 1.0
    if family == "hypercube":
        return 2.0
    raise AnalysisError(
        f"unknown family {family!r}; expected complete/path/cycle/star/hypercube"
    )


class VanillaMeanDynamics:
    """Closed-form ``E[x(t)]`` for vanilla gossip on a fixed graph.

    Diagonalizes ``L`` once; evaluation at any ``t`` is then a couple of
    matrix-vector products.
    """

    def __init__(self, graph: Graph) -> None:
        if graph.n_vertices < 2:
            raise AnalysisError("dynamics need at least two vertices")
        self.graph = graph
        laplacian = laplacian_matrix(graph)
        eigenvalues, eigenvectors = scipy.linalg.eigh(laplacian)
        self._eigenvalues = eigenvalues
        self._eigenvectors = eigenvectors

    @property
    def eigenvalues(self) -> np.ndarray:
        """Laplacian eigenvalues in ascending order."""
        return self._eigenvalues.copy()

    def expected_values(self, x0: "Sequence[float]", t: float) -> np.ndarray:
        """``E[x(t)] = exp(-t L / 2) x0`` exactly."""
        if t < 0:
            raise AnalysisError(f"time must be non-negative, got {t}")
        vector = np.asarray(x0, dtype=np.float64)
        if vector.shape != (self.graph.n_vertices,):
            raise AnalysisError(
                f"x0 must have shape ({self.graph.n_vertices},), "
                f"got {vector.shape}"
            )
        coefficients = self._eigenvectors.T @ vector
        damped = coefficients * np.exp(-0.5 * self._eigenvalues * t)
        return self._eigenvectors @ damped

    def variance_of_expected(self, x0: "Sequence[float]", t: float) -> float:
        """``var(E[x(t)])`` — a lower envelope for ``E[var(x(t))]``.

        (Jensen: ``var`` is convex in ``x``.)
        """
        return float(np.var(self.expected_values(x0, t)))

    def variance_upper_envelope(self, x0: "Sequence[float]", t: float) -> float:
        """``var(0) * exp(-lambda_2 t / 2)`` — the Dirichlet-form bound."""
        if t < 0:
            raise AnalysisError(f"time must be non-negative, got {t}")
        vector = np.asarray(x0, dtype=np.float64)
        gap = float(max(self._eigenvalues[1], 0.0))
        return float(np.var(vector)) * float(np.exp(-0.5 * gap * t))

    def half_life_of_mode(self, mode: int) -> float:
        """Time for eigen-mode ``mode`` of ``E[x]`` to halve."""
        if not 1 <= mode < self.graph.n_vertices:
            raise AnalysisError(
                f"mode must be in [1, {self.graph.n_vertices - 1}], got {mode}"
            )
        eigenvalue = float(self._eigenvalues[mode])
        if eigenvalue <= 0:
            return float("inf")
        return 2.0 * float(np.log(2.0)) / eigenvalue


def monte_carlo_expected_variance(
    graph: Graph,
    x0: "Sequence[float]",
    times: "Sequence[float]",
    *,
    n_replicates: int = 32,
    seed: "int | None" = None,
) -> np.ndarray:
    """``E[var(x(t))]`` at the given times, estimated by simulation.

    Used by the validation test: the estimate must fall inside the
    closed-form sandwich of :class:`VanillaMeanDynamics`.
    """
    grid = np.asarray(times, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise AnalysisError("times must be a non-empty 1-D sequence")
    if np.any(np.diff(grid) <= 0) or grid[0] < 0:
        raise AnalysisError("times must be non-negative and increasing")
    if n_replicates < 1:
        raise AnalysisError("n_replicates must be positive")
    horizon = float(grid[-1])
    accumulator = np.zeros(grid.size)
    for rng in spawn_generators(seed, n_replicates):
        # Sample every event: the step interpolation below must resolve
        # the grid times, and validation sizes are small.
        recorder = TraceRecorder(sample_every=1)
        simulator = Simulator(graph, VanillaGossip(), x0, seed=rng)
        simulator.run(max_time=horizon * 1.01, recorder=recorder)
        sampled_times = recorder.times
        sampled_variances = recorder.variances
        # Step interpolation: variance at time t is the last sample <= t.
        indices = np.searchsorted(sampled_times, grid, side="right") - 1
        indices = np.clip(indices, 0, len(sampled_times) - 1)
        accumulator += sampled_variances[indices]
    return accumulator / n_replicates


def connected_components(graph: Graph) -> list[np.ndarray]:
    """Connected components as sorted vertex arrays, largest-vertex order."""
    seen = np.zeros(graph.n_vertices, dtype=bool)
    components: list[np.ndarray] = []
    for start in range(graph.n_vertices):
        if seen[start]:
            continue
        order = graph.bfs_order(start)
        seen[order] = True
        components.append(np.sort(order))
    return components


class RoundRobinSchedule:
    """Edges tick cyclically ``0, 1, ..., m-1, 0, ...`` at a fixed spacing.

    The default spacing ``1 / m`` mimics the mean event rate of rate-1
    Poisson clocks (one tick per edge per unit time on average).
    """

    def __init__(self, n_edges: int, *, spacing: "float | None" = None) -> None:
        if n_edges < 1:
            raise ValueError(f"n_edges must be positive, got {n_edges}")
        if spacing is not None and spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        self._n_edges = int(n_edges)
        self._spacing = spacing if spacing is not None else 1.0 / n_edges
        self._tick_index = 0

    @property
    def n_edges(self) -> int:
        """Number of edges in the cycle."""
        return self._n_edges

    def next_batch(self, max_events: int) -> "tuple[np.ndarray, np.ndarray]":
        """Next ``max_events`` ticks of the cycle."""
        if max_events < 1:
            raise ValueError(f"max_events must be positive, got {max_events}")
        indices = self._tick_index + np.arange(max_events, dtype=np.int64)
        self._tick_index += max_events
        times = (indices + 1).astype(np.float64) * self._spacing
        edge_ids = indices % self._n_edges
        return times, edge_ids


# ----------------------------------------------------------------------
# retired helpers: no library caller, kept for their own tests
# ----------------------------------------------------------------------


def torus_graph(rows: int, cols: int) -> Graph:
    """The 2-D torus (grid with wraparound); needs rows, cols >= 3."""
    _check_size(rows, minimum=3, name="rows")
    _check_size(cols, minimum=3, name="cols")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            vertex = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add(_norm(vertex, right))
            edges.add(_norm(vertex, down))
    return Graph(rows * cols, sorted(edges))


def binary_tree(depth: int) -> Graph:
    """Complete binary tree of the given depth (depth 0 = single vertex)."""
    if depth < 0:
        raise GraphError(f"depth must be non-negative, got {depth}")
    n = (1 << (depth + 1)) - 1
    edges = []
    for child in range(1, n):
        edges.append(((child - 1) // 2, child))
    return Graph(n, edges)


def lollipop_graph(clique_size: int, path_length: int) -> Graph:
    """``K_m`` with a pendant path of ``path_length`` extra vertices."""
    _check_size(clique_size, minimum=1, name="clique_size")
    if path_length < 0:
        raise GraphError(f"path_length must be non-negative, got {path_length}")
    edges = list(itertools.combinations(range(clique_size), 2))
    previous = clique_size - 1
    for i in range(path_length):
        vertex = clique_size + i
        edges.append((previous, vertex))
        previous = vertex
    return Graph(clique_size + path_length, edges)


def random_geometric_graph(
    n: int,
    radius: float,
    *,
    seed: "int | np.random.Generator | None" = None,
    require_connected: bool = True,
) -> Graph:
    """Random geometric graph on the unit square (connects points < radius)."""
    _check_size(n, minimum=1)
    if radius <= 0:
        raise GraphError(f"radius must be positive, got {radius}")
    rng = as_generator(seed)
    for _ in range(_MAX_CONNECTIVITY_ATTEMPTS):
        points = rng.random((n, 2))
        deltas = points[:, None, :] - points[None, :, :]
        distances = np.sqrt(np.sum(deltas**2, axis=-1))
        us, vs = np.nonzero(np.triu(distances < radius, k=1))
        graph = Graph(n, np.stack([us, vs], axis=1))
        if not require_connected or graph.is_connected():
            return graph
    raise GraphError(
        f"could not sample a connected RGG(n={n}, r={radius}) in "
        f"{_MAX_CONNECTIVITY_ATTEMPTS} attempts; increase radius"
    )


def greedy_route(
    network: GeometricNetwork, source: int, target: int
) -> "list[int] | None":
    """Greedy geographic route ``source -> target``, walked hop by hop.

    The reference loop for :meth:`GeometricNetwork.hop_count`: each hop
    moves to the neighbor strictly closest to the target's position (the
    first in CSR order on a tie).  Returns the vertex path including both
    endpoints, or ``None`` when greedy forwarding hits a void (no neighbor
    improves).
    """
    n = network.graph.n_vertices
    for vertex in (source, target):
        if not 0 <= vertex < n:
            raise GraphError(f"vertex {vertex} out of range for {n} vertices")
    path = [source]
    current = source
    goal = network.positions[target]
    current_distance = float(np.linalg.norm(network.positions[current] - goal))
    while current != target:
        neighbors = network.graph.neighbors(current)
        if len(neighbors) == 0:
            return None
        offsets = network.positions[neighbors] - goal
        distances = np.sqrt(np.sum(offsets * offsets, axis=1))
        best = int(np.argmin(distances))
        if distances[best] >= current_distance:
            return None  # greedy void
        current = int(neighbors[best])
        current_distance = float(distances[best])
        path.append(current)
    return path


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def graph_from_edge_list(
    edges: Iterable[Sequence[int]], *, n_vertices: "int | None" = None
) -> Graph:
    """Build a graph from an edge list, inferring ``n_vertices`` if omitted.

    When inferring, the vertex count is ``max endpoint + 1`` (an empty edge
    list with no explicit count yields the empty graph).
    """
    edge_rows = [(int(u), int(v)) for u, v in edges]
    if n_vertices is None:
        n_vertices = max((max(u, v) for u, v in edge_rows), default=-1) + 1
    return Graph(n_vertices, edge_rows)


def graph_from_adjacency_matrix(matrix: np.ndarray) -> Graph:
    """Build a graph from a symmetric 0/1 adjacency matrix.

    Raises :class:`GraphError` on non-square, asymmetric, or self-loop
    carrying matrices.
    """
    array = np.asarray(matrix)
    if array.ndim != 2 or array.shape[0] != array.shape[1]:
        raise GraphError(f"adjacency matrix must be square, got shape {array.shape}")
    if not np.array_equal(array, array.T):
        raise GraphError("adjacency matrix must be symmetric")
    if np.any(np.diag(array) != 0):
        raise GraphError("adjacency matrix must have a zero diagonal (no self-loops)")
    values = np.unique(array)
    if not np.all(np.isin(values, (0, 1))):
        raise GraphError("adjacency matrix entries must be 0 or 1")
    us, vs = np.nonzero(np.triu(array, k=1))
    return Graph(array.shape[0], np.stack([us, vs], axis=1))


def relabel_graph(graph: Graph, mapping: Sequence[int]) -> Graph:
    """Return a copy of ``graph`` with vertex ``i`` renamed ``mapping[i]``.

    ``mapping`` must be a permutation of ``0..n-1``.
    """
    perm = np.asarray(mapping, dtype=np.int64)
    if perm.shape != (graph.n_vertices,):
        raise GraphError(
            f"mapping must have length {graph.n_vertices}, got {perm.shape}"
        )
    if not np.array_equal(np.sort(perm), np.arange(graph.n_vertices)):
        raise GraphError("mapping must be a permutation of 0..n-1")
    new_edges = perm[graph.edges]
    return Graph(graph.n_vertices, new_edges)


def disjoint_union(first: Graph, second: Graph) -> Graph:
    """Disjoint union; vertices of ``second`` are shifted by ``first``'s size."""
    offset = first.n_vertices
    edges = list(map(tuple, first.edges))
    edges.extend((int(u) + offset, int(v) + offset) for u, v in second.edges)
    return Graph(first.n_vertices + second.n_vertices, edges)


def add_edges(graph: Graph, new_edges: Iterable[Sequence[int]]) -> Graph:
    """A new graph equal to ``graph`` plus ``new_edges`` (duplicates rejected)."""
    edges = list(map(tuple, graph.edges))
    edges.extend((int(u), int(v)) for u, v in new_edges)
    return Graph(graph.n_vertices, edges)


def conductance_of_side(graph: Graph, subset: "np.ndarray | list[int]") -> float:
    """Conductance of the cut ``(subset, complement)``."""
    partition = Partition.from_vertex_set(graph, list(subset))
    return partition.conductance


def normalized_laplacian_matrix(graph: Graph) -> np.ndarray:
    """Dense symmetric normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``.

    Vertices of degree zero contribute identity rows (their normalized
    degree is defined as zero), matching the usual convention.
    """
    adjacency = graph.adjacency_matrix()
    degrees = graph.degrees.astype(np.float64)
    inv_sqrt = np.zeros_like(degrees)
    positive = degrees > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])
    scaled = adjacency * inv_sqrt[:, None] * inv_sqrt[None, :]
    return np.eye(graph.n_vertices) - scaled


def spectral_gap(graph: Graph) -> float:
    """Alias for :func:`algebraic_connectivity` (the gap above zero)."""
    return algebraic_connectivity(graph)


def expected_variance_decay_rate(graph: Graph, values: "Sequence[float]") -> float:
    """Instantaneous expected decay ``(1/2) x^T L x`` of ``sum_i (x_i - mean)^2``
    under rate-1 edge clocks and vanilla updates."""
    array = np.asarray(values, dtype=np.float64)
    if array.shape != (graph.n_vertices,):
        raise AnalysisError(
            f"values must have shape ({graph.n_vertices},), got {array.shape}"
        )
    dirichlet = float(array @ laplacian_matrix(graph) @ array)
    return 0.5 * dirichlet


def vanilla_variance_halving_time(graph: Graph) -> float:
    """Time for expected variance to halve: ``2 ln 2 / lambda_2``."""
    gap = algebraic_connectivity(graph)
    if gap <= 0:
        raise AnalysisError("halving time infinite: graph disconnected")
    return 2.0 * math.log(2.0) / gap


def empirical_cdf(samples: "Sequence[float]"):
    """Return ``F(t) = P[X <= t]`` built from samples (right-continuous)."""
    array = np.sort(np.asarray(samples, dtype=np.float64))
    if array.size == 0:
        raise AnalysisError("cannot build a CDF from zero samples")

    def cdf(t: float) -> float:
        return float(np.searchsorted(array, t, side="right")) / array.size

    return cdf


def stochastically_dominates(
    upper: "Sequence[float]",
    lower: "Sequence[float]",
    *,
    tolerance: float = 0.0,
) -> bool:
    """First-order dominance check: ``upper >= lower`` at every quantile.

    Compares the two sample sets on a shared quantile grid; ``tolerance``
    absorbs Monte-Carlo noise (in distribution units).
    """
    a = np.asarray(upper, dtype=np.float64)
    b = np.asarray(lower, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise AnalysisError("dominance check needs non-empty sample sets")
    grid = np.linspace(0.0, 1.0, 101)
    qa = np.quantile(a, grid)
    qb = np.quantile(b, grid)
    return bool(np.all(qa >= qb - tolerance))


def expected_update_matrix(graph: Graph) -> np.ndarray:
    """Mean per-tick update matrix ``W = I - L / 2m`` of vanilla gossip."""
    if graph.n_edges == 0:
        raise AnalysisError("expected update matrix needs at least one edge")
    return np.eye(graph.n_vertices) - laplacian_matrix(graph) / (2.0 * graph.n_edges)


def log_norm_walk(samples: list) -> np.ndarray:
    """The paper's ``W_k = sum_i log ||A_i||`` (zero-mean-subspace norms).

    Index 0 is ``W_0 = 0``; index ``k`` sums the first ``k`` samples.
    """
    increments = np.array([s.log_norm_zero_mean for s in samples], dtype=np.float64)
    return np.concatenate([[0.0], np.cumsum(increments)])


def sigma_probe(partition: Partition):
    """A recorder probe returning ``sigma`` (for :class:`TraceRecorder`)."""

    def probe(values: np.ndarray) -> float:
        return decompose(values, partition).sigma

    return probe


def imbalance_probe(partition: Partition):
    """A recorder probe returning the paper's ``mu`` potential."""

    def probe(values: np.ndarray) -> float:
        return decompose(values, partition).paper_mu

    return probe


@dataclass(frozen=True, order=True)
class EdgeTick:
    """A single clock tick: edge ``edge_id`` fires at absolute ``time``.

    Ordering is by time (then edge id), so ticks sort chronologically.
    """

    time: float
    edge_id: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"tick time must be non-negative, got {self.time}")
        if self.edge_id < 0:
            raise ValueError(f"edge id must be non-negative, got {self.edge_id}")


class TickCounters:
    """Counts how many times each edge's clock has ticked."""

    def __init__(self, n_edges: int) -> None:
        if n_edges < 1:
            raise ValueError(f"n_edges must be positive, got {n_edges}")
        self._counts = np.zeros(n_edges, dtype=np.int64)

    @property
    def n_edges(self) -> int:
        """Number of tracked edges."""
        return len(self._counts)

    @property
    def total(self) -> int:
        """Total ticks across all edges."""
        return int(self._counts.sum())

    def count(self, edge_id: int) -> int:
        """Tick count of ``edge_id`` so far."""
        self._check(edge_id)
        return int(self._counts[edge_id])

    def record(self, edge_id: int) -> int:
        """Record one tick of ``edge_id``; returns the new count (1-based)."""
        self._check(edge_id)
        self._counts[edge_id] += 1
        return int(self._counts[edge_id])

    def counts(self) -> np.ndarray:
        """Copy of the per-edge count array."""
        return self._counts.copy()

    def reset(self) -> None:
        """Zero all counters."""
        self._counts[:] = 0

    def _check(self, edge_id: int) -> None:
        if not 0 <= edge_id < len(self._counts):
            raise ValueError(
                f"edge id {edge_id} out of range for {len(self._counts)} edges"
            )


def gaussian(
    n: int,
    *,
    rng: "np.random.Generator | int | None" = None,
    scale: float = 1.0,
    zero_mean: bool = True,
) -> np.ndarray:
    """I.i.d. normal values (a benign, cut-agnostic workload)."""
    if n < 1:
        raise ExperimentError(f"n must be positive, got {n}")
    if scale <= 0:
        raise ExperimentError(f"scale must be positive, got {scale}")
    generator = as_generator(rng)
    values = generator.normal(0.0, scale, size=n)
    if zero_mean:
        values = values - values.mean()
    return values


def linear_gradient(n: int, *, zero_mean: bool = True) -> np.ndarray:
    """Values proportional to the vertex index (a smooth field)."""
    if n < 1:
        raise ExperimentError(f"n must be positive, got {n}")
    values = np.arange(n, dtype=np.float64)
    if zero_mean:
        values = values - values.mean()
    return values


def consensus_error(values: "Sequence[float]", target: float) -> float:
    """Max absolute deviation from the target average (sup-norm error)."""
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        raise ValueError("consensus error of an empty vector is undefined")
    return float(np.max(np.abs(array - target)))


def log_ratio(numerator: float, denominator: float) -> float:
    """``log(numerator / denominator)`` computed stably via :func:`safe_log`."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return safe_log(numerator) - math.log(denominator)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (0 if any value is zero)."""
    logs = []
    for value in values:
        if value < 0:
            raise ValueError(
                f"geometric mean requires non-negative values, got {value}"
            )
        if value == 0.0:
            return 0.0
        logs.append(math.log(value))
    if not logs:
        raise ValueError("geometric mean of an empty sequence is undefined")
    return math.exp(sum(logs) / len(logs))


def relative_error(measured: float, reference: float) -> float:
    """``|measured - reference| / |reference|``; reference must be non-zero."""
    if reference == 0:
        raise ValueError("relative error undefined for zero reference")
    return abs(measured - reference) / abs(reference)


def iter_seeds(root_seed: "int | None", count: int) -> Iterator[int]:
    """Yield ``count`` distinct 63-bit integer seeds derived from ``root_seed``."""
    sequence = np.random.SeedSequence(root_seed)
    state = sequence.generate_state(count, dtype=np.uint64)
    for value in state:
        yield int(value) & ((1 << 63) - 1)


def sample_without_replacement(
    rng: np.random.Generator, population: Sequence[int], size: int
) -> np.ndarray:
    """Sample ``size`` distinct items from ``population`` (validated)."""
    if size > len(population):
        raise ValueError(
            f"cannot sample {size} items from population of {len(population)}"
        )
    return rng.choice(np.asarray(population), size=size, replace=False)


def log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Slope of ``log y`` against ``log x`` — the empirical scaling exponent."""
    exponent, _ = fit_power_law(xs, ys)
    return exponent
