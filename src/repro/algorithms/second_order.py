"""Second-order diffusion baseline [Muthukrishnan-Ghosh-Schultz, ToCS 1998].

The paper cites this (reference [5]) as prior art for *non-convex* updates:
second-order diffusive load balancing sets the next value to a linear
combination of the current diffusion step and the **previous** value,

    ``x(t+1) = beta * M x(t) + (1 - beta) * x(t-1)``,

with diffusion matrix ``M = I - h L`` and ``beta in [1, 2)`` — for
``beta > 1`` the coefficient ``1 - beta`` is negative, i.e. the update is
an affine non-convex combination (over successive rounds, not across a
cut; that is the paper's point of difference).

The scheme is synchronous.  We provide:

* :class:`SecondOrderDiffusionSync` — the faithful synchronous iteration,
  with :func:`optimal_second_order_beta` implementing the classical
  optimal ``beta = 2 / (1 + sqrt(1 - rho^2))`` (``rho`` = second-largest
  singular value of ``M``).  One synchronous round is equated to one unit
  of continuous time when compared against edge-clock algorithms (every
  edge clock fires once per unit time in expectation) — substitution
  documented under "Fidelity notes" in docs/reports.md.
* :class:`AsyncSecondOrderGossip` — an adaptation to the paper's
  asynchronous edge-clock model: each node remembers its previous value;
  on a tick the endpoints apply the second-order stencil restricted to the
  pair.  Sum conservation is lost (exactly as second-order methods
  sacrifice monotonicity for speed); the engine tracks the drift.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.algorithms.rules import SecondOrderRule
from repro.errors import AlgorithmError
from repro.graphs.graph import Graph
from repro.graphs.spectral import laplacian_matrix


def diffusion_matrix(graph: Graph, *, step: "float | None" = None) -> np.ndarray:
    """The first-order diffusion matrix ``M = I - h L``.

    ``h`` defaults to ``1 / (max_degree + 1)``, which keeps ``M`` doubly
    stochastic with positive diagonal (stable first-order diffusion).
    """
    if graph.n_vertices == 0:
        raise AlgorithmError("diffusion matrix of the empty graph is undefined")
    max_degree = int(graph.degrees.max()) if graph.n_vertices else 0
    h = step if step is not None else 1.0 / (max_degree + 1)
    if h <= 0:
        raise AlgorithmError(f"diffusion step must be positive, got {h}")
    return np.eye(graph.n_vertices) - h * laplacian_matrix(graph)


def second_largest_modulus(matrix: np.ndarray) -> float:
    """Second-largest absolute eigenvalue of a symmetric matrix."""
    values = np.linalg.eigvalsh(matrix)
    moduli = np.sort(np.abs(values))[::-1]
    if len(moduli) < 2:
        return 0.0
    return float(moduli[1])


def optimal_second_order_beta(graph: Graph, *, step: "float | None" = None) -> float:
    """The classical optimal second-order parameter for the graph.

    ``beta = 2 / (1 + sqrt(1 - rho^2))`` where ``rho`` is the
    second-largest eigenvalue modulus of ``M``; lies in ``[1, 2)``.
    """
    rho = second_largest_modulus(diffusion_matrix(graph, step=step))
    rho = min(rho, 1.0 - 1e-12)
    return 2.0 / (1.0 + math.sqrt(1.0 - rho * rho))


class SecondOrderDiffusionSync:
    """Faithful synchronous second-order diffusion.

    Not a :class:`~repro.algorithms.base.GossipAlgorithm` — it has its own
    round-based driver.  :meth:`run` iterates until the variance ratio
    drops below ``target_ratio`` or ``max_rounds`` is hit, and returns the
    round-indexed variance trace (round ``r`` is compared to continuous
    time ``t = r`` in cross-model benchmarks).
    """

    name = "second-order-diffusion"

    def __init__(
        self,
        graph: Graph,
        *,
        beta: "float | None" = None,
        step: "float | None" = None,
    ) -> None:
        self.graph = graph
        self.matrix = diffusion_matrix(graph, step=step)
        self.beta = (
            beta
            if beta is not None
            else optimal_second_order_beta(graph, step=step)
        )
        if not 0.0 < self.beta < 2.0:
            raise AlgorithmError(f"beta must be in (0, 2), got {self.beta}")

    def run(
        self,
        initial_values: np.ndarray,
        *,
        target_ratio: float = math.e**-2,
        max_rounds: int = 100_000,
    ) -> "tuple[np.ndarray, list[float]]":
        """Iterate; returns ``(final_values, per-round variance trace)``.

        The trace includes the round-0 variance, so ``trace[r]`` is the
        variance after ``r`` rounds.
        """
        x_prev = np.asarray(initial_values, dtype=np.float64).copy()
        if x_prev.shape != (self.graph.n_vertices,):
            raise AlgorithmError(
                f"initial values must have shape ({self.graph.n_vertices},), "
                f"got {x_prev.shape}"
            )
        if max_rounds < 1:
            raise AlgorithmError(f"max_rounds must be positive, got {max_rounds}")
        variance_0 = float(np.var(x_prev))
        trace = [variance_0]
        if variance_0 == 0.0:
            return x_prev, trace
        # First round is plain first-order diffusion (no x(t-1) yet).
        x_curr = self.matrix @ x_prev
        trace.append(float(np.var(x_curr)))
        for _ in range(max_rounds - 1):
            if trace[-1] / variance_0 <= target_ratio:
                break
            x_next = self.beta * (self.matrix @ x_curr) + (1.0 - self.beta) * x_prev
            x_prev, x_curr = x_curr, x_next
            trace.append(float(np.var(x_curr)))
        return x_curr, trace

    def rounds_to_ratio(
        self,
        initial_values: np.ndarray,
        *,
        target_ratio: float = math.e**-2,
        max_rounds: int = 100_000,
    ) -> int:
        """Rounds until the variance ratio first drops to ``target_ratio``.

        Returns ``max_rounds`` if the target was never reached (callers
        treat that as a censored measurement).
        """
        _, trace = self.run(
            initial_values, target_ratio=target_ratio, max_rounds=max_rounds
        )
        variance_0 = trace[0]
        if variance_0 == 0.0:
            return 0
        for round_index, value in enumerate(trace):
            if value / variance_0 <= target_ratio:
                return round_index
        return max_rounds


class AsyncSecondOrderGossip(GossipAlgorithm):
    """Per-edge adaptation of second-order diffusion to the edge-clock model.

    Each node remembers its previous value.  On a tick of ``(u, v)`` the
    pairwise mean plays the role of ``M x`` restricted to the pair:

        ``x_u <- beta * mean + (1 - beta) * prev_u``
        ``x_v <- beta * mean + (1 - beta) * prev_v``

    For ``beta = 1`` this is vanilla gossip; for ``beta > 1`` it
    extrapolates past the mean using the node's own history (momentum).
    The pair update is not sum-conserving for ``beta != 1`` (momentum
    injects mass); the engine's exact bookkeeping tracks the drift, and
    benchmark E8 reports both speed and drift.
    """

    conserves_sum = False
    monotone_variance = False

    def __init__(self, beta: float = 1.5) -> None:
        if not 0.0 < beta < 2.0:
            raise AlgorithmError(f"beta must be in (0, 2), got {beta}")
        self.beta = float(beta)
        self.name = f"async-second-order(beta={self.beta:g})"
        # A plain list, as push-sum keeps its state: per-event scalar
        # indexing of lists is faster than of numpy arrays.
        self._previous: "list[float] | None" = None

    def setup(
        self, graph: Graph, values: np.ndarray, rng: np.random.Generator
    ) -> None:
        super().setup(graph, values, rng)
        self._previous = values.astype(np.float64).tolist()

    def on_tick(
        self,
        edge_id: int,
        u: int,
        v: int,
        time: float,
        tick_count: int,
        values: "Sequence[float]",
    ) -> "tuple[float, float] | None":
        assert self._previous is not None
        mean = 0.5 * (values[u] + values[v])
        new_u = self.beta * mean + (1.0 - self.beta) * self._previous[u]
        new_v = self.beta * mean + (1.0 - self.beta) * self._previous[v]
        self._previous[u] = values[u]
        self._previous[v] = values[v]
        return float(new_u), float(new_v)

    def pairwise_rule(self) -> SecondOrderRule:
        """The tick over this run's previous-value list (after setup)."""
        if self._previous is None:
            raise RuntimeError("setup() has not been called")
        return SecondOrderRule(beta=self.beta, previous=self._previous)

    def describe(self) -> dict:
        return {"name": self.name, "beta": self.beta}
