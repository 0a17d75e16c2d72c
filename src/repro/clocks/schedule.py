"""Deterministic clock schedules for reproducible unit tests.

These implement the same batch protocol as the Poisson clocks, so any
algorithm can be driven by a scripted tick sequence and its update rule
checked step-by-step without randomness.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ScriptedSchedule:
    """An explicit finite tick sequence.

    Constructed from ``(time, edge_id)`` pairs with strictly increasing
    times.  Once exhausted, :meth:`next_batch` returns empty arrays, which
    the engine treats as "clock source dried up" and stops.
    """

    def __init__(
        self, ticks: "Iterable[tuple[float, int]]", *, n_edges: "int | None" = None
    ) -> None:
        pairs = [(float(t), int(e)) for t, e in ticks]
        for (t0, _), (t1, _) in zip(pairs, pairs[1:]):
            if t1 <= t0:
                raise ValueError(
                    f"scripted tick times must be strictly increasing, "
                    f"got {t0} then {t1}"
                )
        for t, e in pairs:
            if t < 0:
                raise ValueError(f"tick time must be non-negative, got {t}")
            if e < 0:
                raise ValueError(f"edge id must be non-negative, got {e}")
        self._times = np.array([t for t, _ in pairs], dtype=np.float64)
        self._edges = np.array([e for _, e in pairs], dtype=np.int64)
        inferred = int(self._edges.max()) + 1 if pairs else 0
        self._n_edges = n_edges if n_edges is not None else inferred
        if pairs and int(self._edges.max()) >= self._n_edges:
            raise ValueError(
                f"edge id {int(self._edges.max())} out of range for "
                f"n_edges={self._n_edges}"
            )
        self._cursor = 0

    @classmethod
    def uniform_times(
        cls,
        edge_ids: Sequence[int],
        *,
        spacing: float = 1.0,
        n_edges: "int | None" = None,
    ) -> "ScriptedSchedule":
        """Script the given edges at times ``spacing, 2*spacing, ...``.

        Pass ``n_edges`` explicitly when the script does not mention the
        highest edge id of the graph it will drive.
        """
        if spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        ticks = [(spacing * (i + 1), int(e)) for i, e in enumerate(edge_ids)]
        return cls(ticks, n_edges=n_edges)

    @property
    def n_edges(self) -> int:
        """Declared number of edges (>= 1 + max scripted id)."""
        return self._n_edges

    @property
    def remaining(self) -> int:
        """How many scripted ticks have not been emitted yet."""
        return len(self._times) - self._cursor

    def next_batch(self, max_events: int) -> "tuple[np.ndarray, np.ndarray]":
        """Next scripted ticks (possibly fewer than requested; maybe empty)."""
        if max_events < 1:
            raise ValueError(f"max_events must be positive, got {max_events}")
        lo = self._cursor
        hi = min(lo + max_events, len(self._times))
        self._cursor = hi
        return self._times[lo:hi].copy(), self._edges[lo:hi].copy()
