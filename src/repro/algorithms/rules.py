"""Declarative pairwise update rules.

Most of the repository's algorithms rewrite the two endpoints of the
ticking edge with a fixed formula of their two values, possibly reading
per-node state the algorithm keeps or one random draw per tick.  Such
an algorithm declares that formula once, as a small frozen rule object
returned by its ``pairwise_rule()`` method, and two consumers read the
declaration instead of re-deriving its constants:

* :class:`~repro.engine.simulator.Simulator` runs a declared rule in its
  compiled event loop (``repro/engine/_loop.c``), with no ``on_tick``
  call per event;
* the vectorized kernel builds its lockstep update objects from it.

The rule kinds mirror the algorithms that declare them:

* :class:`MeanRule` — vanilla gossip, ``x_u, x_v <- (x_u + x_v) / 2``;
* :class:`ConvexRule` — fixed-``alpha`` convex gossip;
* :class:`RandomConvexRule` — convex gossip with ``alpha ~ U[low, high]``
  drawn per tick;
* :class:`SparseCutRule` — the paper's Algorithm A and its multi-cut
  extension: vanilla on internal edges, silence on the other cut edges,
  and a non-convex :class:`Swap` on every ``epoch_length``-th tick of
  each designated edge;
* :class:`TwoTimescaleRule` — vanilla on internal edges, a slow convex
  step on cut edges;
* :class:`PushSumRule` — push-sum's random-direction push;
* :class:`SecondOrderRule` — the asynchronous second-order stencil.

**Rules that keep state.**  :class:`PushSumRule` and
:class:`SecondOrderRule` reference per-run lists the algorithm owns
(push-sum's mass and weight, the second-order previous values).  Such a
rule is valid only for the run its algorithm was last ``setup()`` for,
and a consumer leaves the lists exactly as ``on_tick`` would have (the
compiled loop works on array copies and writes them back at the end).
Per-run counters that live outside the lists (swap counts, the
two-timescale cut-tick count) are reported back through the algorithm's
``add_swaps`` / ``add_cut_ticks``.

**Rules that draw.**  :class:`PushSumRule` and :class:`RandomConvexRule`
draw one value per tick from the generator handed to ``setup()``:
``rng.random()`` and ``rng.uniform(low, high)``.  A consumer may draw
them in blocks, since ``rng.random(k)`` and ``rng.uniform(low, high,
size=k)`` yield the same doubles as ``k`` scalar calls; it must leave
the generator where the scalar calls would have (see
``docs/kernels.md``, "Compiled loop").

A declaration counts only on the exact class that defines
``pairwise_rule`` (see :func:`declared_rule`): a subclass inherits the
method but may override ``on_tick``, so it keeps the generic path until
it declares a rule of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from repro.graphs.graph import Graph


@dataclass(frozen=True)
class MeanRule:
    """``x_u, x_v <- 0.5 * (x_u + x_v)`` on every tick."""


@dataclass(frozen=True)
class ConvexRule:
    """``x_u <- a*x_u + b*x_v``, ``x_v <- a*x_v + b*x_u``, ``b = 1 - a``."""

    alpha: float


@dataclass(frozen=True)
class RandomConvexRule:
    """:class:`ConvexRule` with ``a = rng.uniform(low, high)`` per tick."""

    low: float
    high: float


@dataclass(frozen=True)
class Swap:
    """One designated edge's non-convex swap.

    On every ``epoch_length``-th tick of ``edge`` (its own 1-based tick
    count), ``transfer = gain * (x[b] - x[a])``, ``x[a] += transfer``
    and ``x[b] -= transfer``; ``edge`` joins ``a`` and ``b``.
    """

    edge: int
    a: int
    b: int
    gain: float
    epoch_length: int


@dataclass(frozen=True, eq=False)
class SparseCutRule:
    """Algorithm A's tick as a function of the edge and its tick count.

    ``edge_class`` holds one int8 code per edge: :attr:`SILENCED` for a
    cut edge that is not designated, :attr:`MEAN` for an internal edge
    (vanilla averaging), :attr:`DESIGNATED` for the edge of one of the
    ``swaps``.  Algorithm A declares one swap (``a`` in ``V1``, ``b`` in
    ``V2``); the multi-cut extension one per adjacent cluster pair.
    ``graph`` is the graph the rule was built for.  ``oracle_sides`` is
    ``(V1, V2)`` when the swap reads the true side means instead of the
    endpoint values (Algorithm A's ``oracle_means``), else None.
    """

    SILENCED: ClassVar[int] = 0
    MEAN: ClassVar[int] = 1
    DESIGNATED: ClassVar[int] = 2

    edge_class: np.ndarray
    swaps: "tuple[Swap, ...]"
    graph: Graph
    oracle_sides: "tuple[np.ndarray, np.ndarray] | None" = None


@dataclass(frozen=True, eq=False)
class TwoTimescaleRule:
    """Vanilla on internal edges, ``x_u + step * (x_v - x_u)`` on cut edges.

    ``step`` is ``slow_step``, or with ``harmonic`` the decaying
    ``slow_step / (1.0 + (k - 1) / tau)`` at the ``k``-th cut tick of
    the run (counted across all ``cut_edges``).
    """

    cut_edges: np.ndarray
    slow_step: float
    harmonic: bool
    tau: float


@dataclass(frozen=True, eq=False)
class PushSumRule:
    """A random endpoint pushes half its mass and weight to the other.

    The sender is ``u`` when ``rng.random() < 0.5``, else ``v``; the new
    estimates are ``mass[u] / weight[u]`` and ``mass[v] / weight[v]``.
    ``mass`` and ``weight`` are the algorithm's per-run lists.
    """

    mass: "list[float]"
    weight: "list[float]"


@dataclass(frozen=True, eq=False)
class SecondOrderRule:
    """``x_u <- beta * mean + (1.0 - beta) * previous[u]``, likewise ``v``.

    ``mean = 0.5 * (x_u + x_v)``; afterwards ``previous[u]`` and
    ``previous[v]`` take the endpoints' values from before the tick.
    ``previous`` is the algorithm's per-run list.
    """

    beta: float
    previous: "list[float]"


PairwiseRule = Union[
    MeanRule,
    ConvexRule,
    RandomConvexRule,
    SparseCutRule,
    TwoTimescaleRule,
    PushSumRule,
    SecondOrderRule,
]


def declared_rule(algorithm: object) -> "PairwiseRule | None":
    """The rule ``algorithm``'s own class declares, or None.

    Matched on exact type, like the vectorized kernel's
    ``register_update``: only a class whose body defines
    ``pairwise_rule`` declares one.
    """
    if "pairwise_rule" not in vars(type(algorithm)):
        return None
    return algorithm.pairwise_rule()  # type: ignore[attr-defined]
