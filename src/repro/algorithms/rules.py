"""Declarative pairwise update rules.

Most of the paper's algorithms rewrite the two endpoints of the ticking
edge with a fixed formula of their two values.  Such an algorithm
declares that formula once, as a small frozen rule object returned by
its ``pairwise_rule()`` method, and two consumers read the declaration
instead of re-deriving its constants:

* :class:`~repro.engine.simulator.Simulator` runs a declared rule in a
  specialized event loop with no ``on_tick`` call per event;
* the vectorized kernel builds its lockstep update objects from it.

The rule kinds mirror the algorithms that declare them:

* :class:`MeanRule` — vanilla gossip, ``x_u, x_v <- (x_u + x_v) / 2``;
* :class:`ConvexRule` — fixed-``alpha`` convex gossip;
* :class:`SparseCutRule` — the paper's Algorithm A: vanilla on internal
  edges, silence on the other cut edges, and the non-convex swap on
  every ``epoch_length``-th tick of the designated edge.

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


@dataclass(frozen=True, eq=False)
class SparseCutRule:
    """Algorithm A's tick as a function of the edge and its tick count.

    ``edge_class`` holds one int8 code per edge: :attr:`SILENCED` for a
    cut edge other than the designated one, :attr:`MEAN` for an internal
    edge (vanilla averaging), :attr:`DESIGNATED` for the designated edge.
    On every ``epoch_length``-th tick of the designated edge the swap
    ``transfer = gain * (x[b] - x[a])``, ``x[a] += transfer``,
    ``x[b] -= transfer`` fires, with ``a = endpoint_v1`` in ``V1`` and
    ``b = endpoint_v2`` in ``V2``; with ``oracle_means`` the difference
    is read from the true side means instead.  ``vertices_1``,
    ``vertices_2`` and ``graph`` come from the partition, for those
    side-mean reads and for rejecting a run on a different graph.
    """

    SILENCED: ClassVar[int] = 0
    MEAN: ClassVar[int] = 1
    DESIGNATED: ClassVar[int] = 2

    edge_class: np.ndarray
    designated_edge: int
    epoch_length: int
    gain: float
    endpoint_v1: int
    endpoint_v2: int
    oracle_means: bool
    vertices_1: np.ndarray
    vertices_2: np.ndarray
    graph: Graph

    @property
    def designated_u_is_v1(self) -> bool:
        """Whether the graph stores the designated edge as ``(a, b)``.

        Fixes the swap's ``(new_a, new_b)`` vs ``(new_b, new_a)`` write
        orientation once per configuration.
        """
        u, _v = self.graph.edge_endpoints(self.designated_edge)
        return int(u) == self.endpoint_v1


PairwiseRule = Union[MeanRule, ConvexRule, SparseCutRule]


def declared_rule(algorithm: object) -> "PairwiseRule | None":
    """The rule ``algorithm``'s own class declares, or None.

    Matched on exact type, like the vectorized kernel's
    ``register_update``: only a class whose body defines
    ``pairwise_rule`` declares one.
    """
    if "pairwise_rule" not in vars(type(algorithm)):
        return None
    return algorithm.pairwise_rule()  # type: ignore[attr-defined]
