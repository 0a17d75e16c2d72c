"""Sparse-cut instances: two well-connected subgraphs joined by few edges.

These builders produce the graphs the paper reasons about.  Each returns a
:class:`BridgedPair` — the joined graph together with the ground-truth
:class:`~repro.graphs.partition.Partition` and the list of bridge edges —
so experiments never have to re-derive the planted cut.

The headline instance is :func:`dumbbell_graph`: two cliques joined by a
single edge, for which the paper proves convex algorithms need ``Omega(n)``
while Algorithm A needs ``O(log n)``.

Caching contract: the seeded builders (:func:`two_cliques`,
:func:`two_expanders`, :func:`two_grids`, :func:`two_erdos_renyi`, and
:func:`dumbbell_graph` through :func:`two_cliques`) are memoized per
process on the builder, its arguments in canonical (bound, defaults
applied, type-aware) form and an integer seed, in a bounded LRU of
:data:`MEMO_SIZE` entries per builder.  A :class:`numpy.random.Generator`
seed bypasses the memo (its stream position is state the key cannot
capture), as does ``seed=None`` where it means fresh entropy.  A memo hit
returns the very same :class:`BridgedPair`; that is safe because every
part of it is immutable (the graph and partition arrays and the bridge
ids are read-only, and derived facts such as partition subgraphs are
caches of pure functions), so a warm memo never changes a result.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.graphs.topologies import (
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    random_regular_graph,
)
from repro.util.rng import as_generator

#: Entries kept per memoized builder (see the module docstring).
MEMO_SIZE = 256


@dataclass(frozen=True)
class BridgedPair:
    """A sparse-cut instance: graph + planted partition + bridge edges.

    Attributes
    ----------
    graph:
        The joined graph ``G``.
    partition:
        The planted partition ``(V1, V2)``; its cut is exactly the bridges.
    bridge_edge_ids:
        Read-only edge ids (in ``graph``) of the bridges, sorted.  The first
        entry is the conventional choice for Algorithm A's designated edge
        ``e_c``.
    """

    graph: Graph
    partition: Partition
    bridge_edge_ids: np.ndarray

    @property
    def designated_edge(self) -> int:
        """Edge id of the conventional ``e_c`` (lowest-numbered bridge)."""
        return int(self.bridge_edge_ids[0])

    def to_dict(self) -> dict:
        """Summary for serialization (sizes, cut width)."""
        return {
            "n_vertices": self.graph.n_vertices,
            "n_edges": self.graph.n_edges,
            "n1": self.partition.n1,
            "n2": self.partition.n2,
            "cut_size": self.partition.cut_size,
        }


def join_graphs(
    first: Graph,
    second: Graph,
    bridges: Sequence[tuple[int, int]],
) -> BridgedPair:
    """Join two graphs with explicit bridge edges.

    ``bridges`` is a list of ``(u, v)`` pairs with ``u`` a vertex of
    ``first`` and ``v`` a vertex of ``second`` (in their own labellings).
    The second graph's vertices are shifted by ``first.n_vertices``.
    """
    if not bridges:
        raise GraphError("at least one bridge edge is required to join graphs")
    offset = first.n_vertices
    seen = set()
    for u, v in bridges:
        if not 0 <= u < first.n_vertices:
            raise GraphError(f"bridge endpoint {u} not a vertex of the first graph")
        if not 0 <= v < second.n_vertices:
            raise GraphError(f"bridge endpoint {v} not a vertex of the second graph")
        if (u, v) in seen:
            raise GraphError(f"duplicate bridge ({u}, {v})")
        seen.add((u, v))
    bridge_rows = np.array(
        [(int(u), int(v) + offset) for u, v in bridges], dtype=np.int64
    )
    graph = Graph(
        first.n_vertices + second.n_vertices,
        np.concatenate([first.edges, second.edges + offset, bridge_rows]),
    )
    side = np.concatenate(
        [
            np.zeros(first.n_vertices, dtype=np.int64),
            np.ones(second.n_vertices, dtype=np.int64),
        ]
    )
    partition = Partition(graph, side)
    bridge_ids = np.array(
        sorted(graph.edge_id(u, v) for u, v in bridge_rows.tolist()), dtype=np.int64
    )
    bridge_ids.setflags(write=False)
    return BridgedPair(graph=graph, partition=partition, bridge_edge_ids=bridge_ids)


def _memoized(*, fixed_without_seed: bool) -> Callable[[Callable], Callable]:
    """Memoize a seeded builder per process (contract: module docstring).

    ``fixed_without_seed`` says whether ``seed=None`` gives a fixed
    instance (deterministic bridges) rather than fresh entropy.
    """

    def decorate(builder: Callable[..., BridgedPair]) -> Callable[..., BridgedPair]:
        signature = inspect.signature(builder)
        cached = functools.lru_cache(maxsize=MEMO_SIZE, typed=True)(builder)

        @functools.wraps(builder)
        def memoized(*args: Any, **kwargs: Any) -> BridgedPair:
            try:
                bound = signature.bind(*args, **kwargs)
            except TypeError:
                return builder(*args, **kwargs)
            bound.apply_defaults()
            seed = bound.arguments["seed"]
            if isinstance(seed, (int, np.integer)) or (
                seed is None and fixed_without_seed
            ):
                return cached(**bound.arguments)
            return builder(*args, **kwargs)

        memoized.cache_clear = cached.cache_clear  # type: ignore[attr-defined]
        memoized.cache_info = cached.cache_info  # type: ignore[attr-defined]
        return memoized

    return decorate


def _spread_bridges(
    n1: int, n2: int, n_bridges: int, rng: "np.random.Generator | None"
) -> list[tuple[int, int]]:
    """Choose bridge endpoint pairs, distinct pairs, deterministic if rng None."""
    if n_bridges < 1:
        raise GraphError(f"n_bridges must be at least 1, got {n_bridges}")
    if n_bridges > n1 * n2:
        raise GraphError(
            f"cannot place {n_bridges} distinct bridges between sides of size "
            f"{n1} and {n2}"
        )
    if rng is None:
        pairs = []
        for k in range(n_bridges):
            pairs.append((k % n1, k % n2))
        if len(set(pairs)) != len(pairs):
            pairs = [(k // n2, k % n2) for k in range(n_bridges)]
        return pairs
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < n_bridges:
        u = int(rng.integers(n1))
        v = int(rng.integers(n2))
        chosen.add((u, v))
    return sorted(chosen)


@_memoized(fixed_without_seed=True)
def two_cliques(
    n1: int,
    n2: "int | None" = None,
    *,
    n_bridges: int = 1,
    seed: "int | np.random.Generator | None" = None,
) -> BridgedPair:
    """Two cliques ``K_{n1}``, ``K_{n2}`` joined by ``n_bridges`` edges.

    With ``n2 = n1`` and one bridge this is the paper's dumbbell ``G'``.
    Bridges are placed deterministically unless a seed is given.
    """
    if n2 is None:
        n2 = n1
    rng = as_generator(seed) if seed is not None else None
    bridges = _spread_bridges(n1, n2, n_bridges, rng)
    return join_graphs(complete_graph(n1), complete_graph(n2), bridges)


def dumbbell_graph(n: int) -> BridgedPair:
    """The paper's headline graph: two ``n/2``-cliques, one bridge.

    ``n`` must be even and at least 4.  Convex algorithms average in
    ``Omega(n)``; Algorithm A in ``O(log n)``.
    """
    if n < 4 or n % 2 != 0:
        raise GraphError(f"dumbbell size must be even and >= 4, got {n}")
    return two_cliques(n // 2, n // 2, n_bridges=1)


@_memoized(fixed_without_seed=False)
def two_expanders(
    n1: int,
    n2: "int | None" = None,
    *,
    degree: int = 8,
    n_bridges: int = 1,
    seed: "int | np.random.Generator | None" = None,
) -> BridgedPair:
    """Two random-regular expanders joined by ``n_bridges`` edges.

    The scalable sparse-cut family: random ``d``-regular graphs have
    ``lambda_2(L) = Theta(d)`` w.h.p., so each side is "internally well
    connected" while the instance has only ``n * d / 2`` edges (the
    simulator cost stays near-linear in ``n``, unlike clique pairs).
    """
    if n2 is None:
        n2 = n1
    rng = as_generator(seed)
    g1 = random_regular_graph(n1, degree, seed=rng)
    g2 = random_regular_graph(n2, degree, seed=rng)
    bridges = _spread_bridges(n1, n2, n_bridges, rng)
    return join_graphs(g1, g2, bridges)


@_memoized(fixed_without_seed=True)
def two_grids(
    rows: int,
    cols: int,
    *,
    n_bridges: int = 1,
    seed: "int | np.random.Generator | None" = None,
) -> BridgedPair:
    """Two ``rows x cols`` grids joined by ``n_bridges`` edges.

    Grids are only moderately well connected (``lambda_2 = Theta(1/n)``),
    so this family probes Theorem 2 when ``Tvan(Gi)`` itself is large.
    """
    g = grid_graph(rows, cols)
    rng = as_generator(seed) if seed is not None else None
    bridges = _spread_bridges(g.n_vertices, g.n_vertices, n_bridges, rng)
    return join_graphs(g, grid_graph(rows, cols), bridges)


@_memoized(fixed_without_seed=False)
def two_erdos_renyi(
    n1: int,
    n2: "int | None" = None,
    *,
    p: "float | None" = None,
    n_bridges: int = 1,
    seed: "int | np.random.Generator | None" = None,
) -> BridgedPair:
    """Two connected ``G(n, p)`` samples joined by ``n_bridges`` edges.

    ``p`` defaults to ``3 ln n / n`` (safely above the connectivity
    threshold).
    """
    if n2 is None:
        n2 = n1
    rng = as_generator(seed)
    import math

    p1 = p if p is not None else min(1.0, 3.0 * math.log(max(n1, 2)) / n1)
    p2 = p if p is not None else min(1.0, 3.0 * math.log(max(n2, 2)) / n2)
    g1 = erdos_renyi_graph(n1, p1, seed=rng)
    g2 = erdos_renyi_graph(n2, p2, seed=rng)
    bridges = _spread_bridges(n1, n2, n_bridges, rng)
    return join_graphs(g1, g2, bridges)


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
