"""Stochastic dominance: the paper's key coupling, made empirical.

The proof of Theorem 2 couples the log-variance walk
``W_k = sum_i log ||A_i||`` with the dominating walk ``W~_k`` so that
``W_k <= W~_k`` pathwise.  The coupling works because of two facts about
each increment (Lemma 1 and Eq. 12):

* ``log ||A_k|| <= -(3/2) log n`` with probability at least 1/2, and
* ``log ||A_k|| <= log n`` always.

Given those, draw one uniform ``U`` per epoch: if the increment lands in
its own lower half (``U < 1/2``) pair it with the dominating step
``-(3/2) log n``; otherwise pair it with ``+log n``.  Both coordinates
are marginally correct and the domination holds pathwise.  This module
implements exactly that construction on *sampled* increments.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.errors import AnalysisError


def couple_with_dominating_walk(
    log_norm_increments: "Sequence[float]",
    n: int,
    *,
    seed: "int | np.random.Generator | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Build the paper's pathwise coupling from sampled increments.

    Parameters
    ----------
    log_norm_increments:
        Sampled ``log ||A_k||`` values (one per epoch).
    n:
        Graph size (sets the dominating step sizes).

    Returns
    -------
    ``(walk, dominating_walk)`` — cumulative paths of equal length
    (index 0 = 0).  The construction pairs each increment with a
    dominating step that is marginally ``+-``-correct *and* pathwise
    above it, using the increment's own rank as the coin: increments in
    the lower half of the empirical distribution get the ``-(3/2) log n``
    step, the rest get ``+log n``.  If the sampled increments violate the
    paper's premises (some increment above ``log n``, or fewer than half
    below ``-(3/2) log n``), the domination may fail — callers assert on
    the returned paths, which is the point of the experiment.
    """
    increments = np.asarray(log_norm_increments, dtype=np.float64)
    if increments.size == 0:
        raise AnalysisError("need at least one increment")
    if n < 2:
        raise AnalysisError(f"graph size n must be >= 2, got {n}")
    log_n = math.log(n)
    # Rank-based coin: lower-half increments pair with the down step.
    order = np.argsort(np.argsort(increments, kind="stable"), kind="stable")
    lower_half = order < (increments.size // 2 + increments.size % 2)
    dominating = np.where(lower_half, -1.5 * log_n, log_n)
    walk = np.concatenate([[0.0], np.cumsum(increments)])
    dom_walk = np.concatenate([[0.0], np.cumsum(dominating)])
    return walk, dom_walk


def dominance_violations(walk: np.ndarray, dominating: np.ndarray) -> int:
    """Count positions where the walk exceeds its dominating partner."""
    a = np.asarray(walk, dtype=np.float64)
    b = np.asarray(dominating, dtype=np.float64)
    if a.shape != b.shape:
        raise AnalysisError("paths must have equal shape")
    return int(np.sum(a > b + 1e-12))
