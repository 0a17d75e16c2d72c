"""The gossip-algorithm protocol.

An averaging algorithm, in the paper's model, is a rule that reacts to the
tick of an edge ``e = (u, v)`` by rewriting the values of ``u`` and ``v``
(possibly using auxiliary per-node state the algorithm maintains itself).
The simulation engine owns the value vector, the clock and all metric
bookkeeping; algorithms only implement :meth:`GossipAlgorithm.on_tick`.

``on_tick`` takes plain positional arguments rather than a context object:
the engine calls it once per clock tick — millions of times per run — and
per-call object allocation is the difference between seconds and minutes
on the benchmark sweeps.

Two declared capabilities let the engine and estimators specialize:

* ``conserves_sum`` — whether updates preserve ``sum(x)`` exactly (all of
  the paper's algorithms do; push-sum estimates and the async second-order
  adaptation do not).
* ``monotone_variance`` — whether ``var X(t)`` is non-increasing along
  every trajectory (true for the convex class ``C``; false for Algorithm
  A).  Averaging-time estimators use this to stop at the *first* threshold
  crossing instead of scanning for the last one.

An algorithm whose tick is a fixed formula of the two endpoint values
(possibly reading per-node state it keeps, or one random draw per tick)
can also declare that formula once through
:meth:`GossipAlgorithm.pairwise_rule` (see :mod:`repro.algorithms.rules`);
the simulator then runs it without calling ``on_tick``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algorithms.rules import PairwiseRule


class GossipAlgorithm(abc.ABC):
    """Base class for pairwise averaging algorithms.

    Lifecycle: the engine calls :meth:`setup` once per run (binding the
    graph, the initial values and a random stream), then :meth:`on_tick`
    once per clock tick.  ``on_tick`` returns either ``None`` (no update —
    e.g. Algorithm A on a silenced cut edge) or the pair of new values for
    ``(u, v)``; the engine applies them and maintains variance/sum
    bookkeeping incrementally.

    Algorithms must be reusable: calling :meth:`setup` again must fully
    reset any auxiliary state.
    """

    #: Short machine name; registry key and table label.
    name: str = "abstract"

    #: Whether updates preserve sum(x) exactly (see module docstring).
    conserves_sum: bool = True

    #: Whether var X(t) is non-increasing along every trajectory.
    monotone_variance: bool = False

    def setup(
        self,
        graph: Graph,
        values: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Bind to a run.  Default implementation stores the graph and rng.

        Subclasses overriding this must call ``super().setup(...)``.
        """
        if np.asarray(values).shape != (graph.n_vertices,):
            raise ValueError(
                f"values must have shape ({graph.n_vertices},), "
                f"got {np.asarray(values).shape}"
            )
        self._graph = graph
        self._rng = rng

    @abc.abstractmethod
    def on_tick(
        self,
        edge_id: int,
        u: int,
        v: int,
        time: float,
        tick_count: int,
        values: "Sequence[float]",
    ) -> "tuple[float, float] | None":
        """React to a tick of edge ``edge_id = (u, v)`` at ``time``.

        Parameters
        ----------
        edge_id:
            The edge whose clock ticked.
        u, v:
            Its endpoints (``u < v``, the graph's canonical order).
        time:
            Absolute tick time.
        tick_count:
            How many times this edge has ticked so far, **including**
            this tick (1-based).  Algorithm A's epoch schedule lives on
            this counter.
        values:
            The current value vector (indexable; treat as read-only and
            return the new endpoint values instead of writing in place,
            so the engine's incremental statistics stay exact).

        Returns
        -------
        ``(new_value_u, new_value_v)`` to apply (fast path — must be a
        plain tuple), a **list** of ``(vertex, new_value)`` pairs for
        algorithms that rewrite nodes other than the tick's endpoints
        (e.g. multi-hop geographic gossip), or ``None`` for a no-op.
        """

    def pairwise_rule(self) -> "PairwiseRule | None":
        """This algorithm's tick as a declarative rule, or None.

        A class that overrides this declares its ``on_tick`` as one of
        the rules in :mod:`repro.algorithms.rules`; the declaration must
        describe exactly what ``on_tick`` computes.  A rule that references
        per-run state is requested after :meth:`setup`.  It binds only the
        defining class (:func:`~repro.algorithms.rules.declared_rule`
        matches on exact type), so subclasses fall back to ``on_tick``.
        """
        return None

    def describe(self) -> dict:
        """Human/serialization-friendly description of the configuration."""
        return {"name": self.name}

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{key}={value!r}"
            for key, value in self.describe().items()
            if key != "name"
        )
        return f"{type(self).__name__}({fields})"
