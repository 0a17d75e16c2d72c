"""Averaging-time estimation implementing the paper's Definition 1.

The paper defines

    ``T_av = sup_x inf { t : P[ exists T > t :
              var X(T) / var X(0) > e^{-2} ] < 1/e }``

i.e. the earliest time after which, with probability at least ``1 - 1/e``,
the variance ratio never again exceeds ``e^{-2}``.  The Monte-Carlo analog
(fidelity note F3 in docs/reports.md):

1. fix the initial vector — experiments use the adversarial cut-aligned
   vector from the paper's own Theorem-1 proof, standing in for the
   ``sup_x``;
2. for each replicate record the **last** time the variance ratio exceeds
   ``e^{-2}`` (non-convex updates make excursions, so the first crossing
   is not enough; for variance-monotone algorithms first = last and the
   run may stop at the first crossing);
3. report the ``(1 - 1/e)``-quantile of those last-crossing times.

Censoring: a replicate that exhausts its budget before settling
contributes ``+inf``.  If so many replicates are censored that the
quantile falls among them, the estimate itself is ``inf`` — the caller's
budget was too small, and the result says so rather than silently
truncating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.engine.backends import ExecutionBackend
from repro.engine.results import RunResult
from repro.engine.runner import MonteCarloRunner
from repro.errors import SimulationError
from repro.graphs.graph import Graph

#: The paper's variance-ratio threshold, ``e^{-2}``.
PAPER_VARIANCE_THRESHOLD = math.e**-2

#: The paper's confidence level: crossings hold with prob >= 1 - 1/e.
PAPER_CONFIDENCE_QUANTILE = 1.0 - 1.0 / math.e

#: Non-monotone runs settle to threshold * this factor before we trust
#: that no further excursion above the threshold will occur.
DEFAULT_SETTLE_FACTOR = 1e-6


@dataclass
class AveragingTimeEstimate:
    """A Monte-Carlo averaging-time measurement.

    Attributes
    ----------
    estimate:
        The ``quantile``-quantile of per-replicate crossing times
        (``inf`` when censoring swallowed the quantile).
    samples:
        Per-replicate last-crossing times (``inf`` = censored).
    threshold, quantile:
        The variance-ratio threshold and confidence quantile used.
    n_censored:
        Replicates that exhausted their budget before settling.
    """

    estimate: float
    samples: np.ndarray
    threshold: float
    quantile: float
    n_censored: int

    @property
    def n_replicates(self) -> int:
        """Number of replicates behind this estimate."""
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Mean crossing time over uncensored replicates (nan if none)."""
        finite = self.samples[np.isfinite(self.samples)]
        if finite.size == 0:
            return float("nan")
        return float(finite.mean())

    @property
    def is_censored(self) -> bool:
        """True when the quantile landed among censored replicates."""
        return not math.isfinite(self.estimate)

    def to_dict(self) -> dict:
        """Plain-dict view for serialization."""
        return {
            "estimate": self.estimate if math.isfinite(self.estimate) else None,
            "samples": [s if math.isfinite(s) else None for s in self.samples],
            "threshold": self.threshold,
            "quantile": self.quantile,
            "n_censored": self.n_censored,
            "mean": None if math.isnan(self.mean) else self.mean,
        }


def quantile_index(n: int, quantile: float) -> int:
    """The library's one quantile convention: order statistic
    ``ceil(q * n) - 1``, clamped to ``[0, n - 1]``.

    Shared by the estimator below, the sweep scheduler's per-point
    quantiles and its bootstrap resamples — one definition, so the
    sweep path and the single-configuration path cannot drift.
    """
    index = min(int(math.ceil(quantile * n)) - 1, n - 1)
    return max(index, 0)


def quantile_estimate(samples: "Sequence[float]", quantile: float) -> float:
    """The ``quantile``-quantile of ``samples`` under the rule above.

    ``inf`` (censored) samples sort last, so a quantile landing among
    them is honestly infinite.  NaN samples must be excluded by the
    caller.  Empty input returns NaN.
    """
    array = np.sort(np.asarray(samples, dtype=np.float64))
    if len(array) == 0:
        return float("nan")
    return float(array[quantile_index(len(array), quantile)])


def crossing_sample(
    result: RunResult, threshold: float, monotone: bool
) -> "tuple[float, bool]":
    """Extract (last-crossing time, censored?) from one run.

    The single sample-extraction rule shared by the estimator below and
    the sweep scheduler (:mod:`repro.engine.sweeps`): monotone algorithms
    settle at their first crossing, non-monotone ones are trusted only if
    the run actually reached its settle target; everything else is a
    censored ``inf`` sample.
    """
    crossing = result.crossing(threshold)
    if monotone:
        if crossing.first_below is None:
            return float("inf"), True
        return crossing.first_below, False
    # Non-monotone: trust last_above only if the run actually settled.
    if result.stopped_by != "target_ratio":
        return float("inf"), True
    return crossing.last_above, False


def estimate_averaging_time(
    graph: Graph,
    algorithm_factory: "Callable[[], GossipAlgorithm]",
    initial_values: (
        "Sequence[float] | Callable[[np.random.Generator], Sequence[float]]"
    ),
    *,
    n_replicates: int = 8,
    seed: "int | None" = None,
    threshold: float = PAPER_VARIANCE_THRESHOLD,
    quantile: float = PAPER_CONFIDENCE_QUANTILE,
    max_time: "float | None" = None,
    max_events: "int | None" = None,
    settle_factor: float = DEFAULT_SETTLE_FACTOR,
    clock_factory: "Callable[[np.random.Generator], object] | None" = None,
    backend: "ExecutionBackend | str | None" = None,
    n_workers: "int | None" = None,
) -> AveragingTimeEstimate:
    """Monte-Carlo estimate of the paper's ``T_av`` (see module docstring).

    ``max_time``/``max_events`` bound each replicate; at least one must be
    given (unbounded non-convergent runs would otherwise spin forever).
    ``clock_factory`` swaps in a non-standard clock model per replicate
    (boosted rates, failure injection).  ``backend``/``n_workers`` choose
    how replicates execute (see :mod:`repro.engine.backends`); estimates
    are bit-identical across backends for the same seed.
    """
    if not 0 < threshold < 1:
        raise SimulationError(f"threshold must be in (0, 1), got {threshold}")
    if not 0 < quantile < 1:
        raise SimulationError(f"quantile must be in (0, 1), got {quantile}")
    if max_time is None and max_events is None:
        raise SimulationError(
            "estimate_averaging_time needs max_time and/or max_events"
        )
    probe = algorithm_factory()
    monotone = probe.monotone_variance
    target_ratio = threshold if monotone else threshold * settle_factor

    runner = MonteCarloRunner(
        graph,
        algorithm_factory,
        initial_values,
        seed=seed,
        clock_factory=clock_factory,
        backend=backend,
        n_workers=n_workers,
    )
    results = runner.run(
        n_replicates,
        target_ratio=target_ratio,
        max_time=max_time,
        max_events=max_events,
        thresholds=(threshold,),
    )
    samples = []
    n_censored = 0
    for result in results:
        sample, censored = crossing_sample(result, threshold, monotone)
        samples.append(sample)
        n_censored += int(censored)
    sample_array = np.asarray(samples, dtype=np.float64)

    # Quantile among *all* replicates, censored included: if it lands on
    # a censored one the estimate is infinite.
    estimate = quantile_estimate(sample_array, quantile)
    return AveragingTimeEstimate(
        estimate=estimate,
        samples=sample_array,
        threshold=threshold,
        quantile=quantile,
        n_censored=n_censored,
    )


def epsilon_averaging_time(
    graph: Graph,
    algorithm_factory: "Callable[[], GossipAlgorithm]",
    initial_values: (
        "Sequence[float] | Callable[[np.random.Generator], Sequence[float]]"
    ),
    epsilon: float,
    *,
    n_replicates: int = 8,
    seed: "int | None" = None,
    max_time: "float | None" = None,
    max_events: "int | None" = None,
    backend: "ExecutionBackend | str | None" = None,
    n_workers: "int | None" = None,
) -> AveragingTimeEstimate:
    """Boyd-et-al-style ``epsilon``-averaging time.

    Uses variance ratio ``epsilon^2`` (i.e. L2 error ``epsilon``) as the
    threshold and the ``(1 - epsilon)``-quantile as the confidence level —
    the natural translation of ``P[error >= eps] <= eps`` into this
    library's crossing machinery.
    """
    if not 0 < epsilon < 1:
        raise SimulationError(f"epsilon must be in (0, 1), got {epsilon}")
    return estimate_averaging_time(
        graph,
        algorithm_factory,
        initial_values,
        n_replicates=n_replicates,
        seed=seed,
        threshold=epsilon * epsilon,
        quantile=1.0 - epsilon,
        max_time=max_time,
        max_events=max_events,
        backend=backend,
        n_workers=n_workers,
    )
