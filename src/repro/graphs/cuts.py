"""Sparse-cut detection.

Algorithm A needs to know the cut ``(V1, V2, E12)``.  Planted instances
carry it; for arbitrary graphs the orchestrator finds one here:

* :func:`fiedler_sweep_cut` — the classical Cheeger sweep: order vertices
  by Fiedler value and take the prefix of minimum conductance.  On graphs
  that genuinely have one sparse cut (the paper's regime) the sweep
  recovers it.
* :func:`brute_force_min_conductance_cut` — exact minimum-conductance cut
  by subset enumeration, exponential, used as a test oracle on tiny graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.partition import Partition
from repro.graphs.spectral import fiedler_vector

#: Brute force enumerates 2^(n-1) subsets; refuse beyond this size.
_BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class CutResult:
    """A detected cut and its quality measures."""

    partition: Partition
    conductance: float
    sparsity: float
    method: str

    def to_dict(self) -> dict:
        """Plain-dict summary for serialization."""
        return {
            "n1": self.partition.n1,
            "n2": self.partition.n2,
            "cut_size": self.partition.cut_size,
            "conductance": self.conductance,
            "sparsity": self.sparsity,
            "method": self.method,
        }


def fiedler_sweep_cut(
    graph: Graph, *, require_connected_sides: bool = False
) -> CutResult:
    """Minimum-conductance sweep cut along the Fiedler ordering.

    Vertices are sorted by Fiedler value; every prefix/suffix split is
    scored by conductance (computed incrementally in O(m) total) and the
    best is returned.  With ``require_connected_sides=True`` only splits
    whose two sides are internally connected are eligible — Algorithm A
    requires connected sides — and a :class:`GraphError` is raised if no
    such split exists along the sweep.
    """
    n = graph.n_vertices
    if n < 2:
        raise GraphError("cannot cut a graph with fewer than two vertices")
    order = np.argsort(fiedler_vector(graph), kind="stable")
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)

    degrees = graph.degrees.astype(np.int64)
    total_volume = int(degrees.sum())
    if total_volume == 0:
        raise GraphError("cannot cut a graph with no edges")

    prefix_volume = 0
    cut_size = 0
    best: "tuple[float, int] | None" = None
    scores: list[tuple[int, float]] = []
    # Sweep: move vertices one at a time into the prefix side, maintaining
    # the crossing-edge count incrementally.
    in_prefix = np.zeros(n, dtype=bool)
    for k in range(n - 1):
        vertex = int(order[k])
        in_prefix[vertex] = True
        prefix_volume += int(degrees[vertex])
        for neighbor in graph.neighbors(vertex):
            if in_prefix[neighbor]:
                cut_size -= 1
            else:
                cut_size += 1
        smaller_volume = min(prefix_volume, total_volume - prefix_volume)
        if smaller_volume == 0 or cut_size == 0:
            continue
        conductance = cut_size / smaller_volume
        scores.append((k, conductance))
        if best is None or conductance < best[0]:
            best = (conductance, k)

    if best is None:
        raise GraphError("sweep found no valid cut (graph may be disconnected)")

    candidates = sorted(scores, key=lambda item: item[1])
    for k, conductance in candidates:
        side = np.ones(n, dtype=np.int64)
        side[order[: k + 1]] = 0
        partition = Partition(graph, side)
        if require_connected_sides:
            ok1, ok2 = partition.sides_connected()
            if not (ok1 and ok2):
                continue
        return CutResult(
            partition=partition,
            conductance=partition.conductance,
            sparsity=partition.sparsity,
            method="fiedler_sweep",
        )
    raise GraphError(
        "no sweep cut with internally connected sides exists; "
        "supply the partition explicitly"
    )


def brute_force_min_conductance_cut(graph: Graph) -> CutResult:
    """Exact minimum-conductance cut by enumerating all vertex subsets.

    Exponential in ``n``; guarded to ``n <= {limit}``.  Used as the oracle
    against which the sweep cut is tested.
    """.format(limit=_BRUTE_FORCE_LIMIT)
    n = graph.n_vertices
    if n < 2:
        raise GraphError("cannot cut a graph with fewer than two vertices")
    if n > _BRUTE_FORCE_LIMIT:
        raise GraphError(
            f"brute force cut limited to n <= {_BRUTE_FORCE_LIMIT}, got {n}"
        )
    degrees = graph.degrees.astype(np.int64)
    edges = graph.edges
    best_mask = 0
    best_conductance = float("inf")
    # Fix vertex 0 on side 0 to halve the enumeration (complement symmetry).
    for mask in range(1, 1 << (n - 1)):
        side = np.zeros(n, dtype=bool)
        for bit in range(n - 1):
            if mask >> bit & 1:
                side[bit + 1] = True
        if not side.any() or side.all():
            continue
        crossing = int(np.sum(side[edges[:, 0]] != side[edges[:, 1]]))
        if crossing == 0:
            continue
        vol_in = int(degrees[side].sum())
        smaller = min(vol_in, int(degrees.sum()) - vol_in)
        if smaller == 0:
            continue
        conductance = crossing / smaller
        if conductance < best_conductance:
            best_conductance = conductance
            best_mask = mask
    if best_conductance == float("inf"):
        raise GraphError("no cut found (graph has no edges?)")
    side = np.zeros(n, dtype=np.int64)
    for bit in range(n - 1):
        if best_mask >> bit & 1:
            side[bit + 1] = 1
    partition = Partition(graph, side)
    return CutResult(
        partition=partition,
        conductance=partition.conductance,
        sparsity=partition.sparsity,
        method="brute_force",
    )
