"""Sharded parameter sweeps with adaptive replicate budgets.

Every paper claim is a quantile of averaging time measured across a
*grid* of configurations (graph size, cut width, clock model, algorithm).
The Monte-Carlo runner fans out the replicates of one configuration; this
module fans out the **whole grid**: a :class:`SweepSpec` flattens its
axes' cartesian product into :class:`SweepPoint` configurations, and
:class:`SweepRunner` dispatches configuration x replicate work units
through one :class:`~repro.engine.backends.ExecutionBackend` batch per
round, so a sweep saturates the process pool instead of running one
configuration at a time.

**Seed namespaces.**  The sweep root seed derives one private
:class:`numpy.random.SeedSequence` per configuration (spawn-key prefix
``(SWEEP_SPAWN_NAMESPACE, point_index)``); each configuration's
replicates then derive through the same
:class:`~repro.engine.runner.MonteCarloRunner` scheme as single-
configuration runs.  Streams are therefore disjoint between
configurations, between replicates, and between adaptive rounds — and
identical regardless of backend, worker count, or round size.

**Adaptive replicate budgets.**  A :class:`ReplicateBudget` spawns
replicates in rounds and stops a configuration once a deterministic
bootstrap confidence interval on the target quantile is tight
(``ci_width / estimate <= target_ci``) or the cap is hit (the point is
then flagged ``budget_exhausted``).  The stopping rule is evaluated on
sample *prefixes* in replicate order — the settled replicate count is the
smallest prefix that meets the target — so the reported
:class:`SweepResult` is **bit-identical across backends, worker counts
and round sizes**: scheduling only decides how much surplus work was
computed, never which samples are reported.  Diverged (NaN) replicates
are excluded from the quantile and its CI but still count toward the
cap, so a pathological configuration terminates instead of stalling the
loop.

**Shared-state shipping.**  All replicates of one configuration repeat
the same immutable objects (graph, factories, workload).  By default the
runner builds *slim* replicate specs whose heavy fields are
:class:`~repro.engine.backends.SharedStateRef` placeholders and hands
the whole grid's state mapping to
:meth:`~repro.engine.backends.ExecutionBackend.execute_shared` — the
process backend installs it once per worker via the executor
initializer, the serial backend resolves in-process against the very
same objects.  Transport only: the reported result is bit-identical with
shipping on or off (``share_state=False`` restores inline pickling).

**Checkpoints.**  :meth:`SweepResult.to_dict` round-trips through JSON
(:meth:`SweepResult.from_dict`) with non-finite samples encoded
portably; :class:`SweepRunner` writes an atomic (tmp + fsync + rename)
checkpoint after every round carrying the settled points *and* each
pending configuration's sample prefix, so a sweep resumes byte-
identically even after the process running it crashes mid-sweep — a
torn or corrupt checkpoint is rejected with a clear :class:`SweepError`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.engine.averaging_time import (
    DEFAULT_SETTLE_FACTOR,
    PAPER_CONFIDENCE_QUANTILE,
    PAPER_VARIANCE_THRESHOLD,
    crossing_sample,
    quantile_estimate,
    quantile_index,
)
from repro.engine.backends import (
    ExecutionBackend,
    execute_with_retry,
    resolve_backend,
)
from repro.engine.kernels import (
    KernelDemotionWarning,
    default_kernel,
    eligibility,
    normalize_kernel,
)
from repro.engine.results import RunResult
from repro.engine.runner import MonteCarloRunner
from repro.errors import SerializationError, SweepError
from repro.graphs.graph import Graph
from repro.util.rng import derive_child

#: Spawn-key namespace under which a sweep derives per-configuration
#: seed sequences from its root.  Distinct from the runner's replicate
#: namespace so a sweep's streams never collide with a caller's own
#: MonteCarloRunner on the same root seed.
SWEEP_SPAWN_NAMESPACE = 0x53574545  # "SWEE"

#: Spawn-key namespace for the deterministic bootstrap generator used by
#: the adaptive stopping rule (keyed further by the prefix length, so the
#: decision at n replicates never depends on scheduling).
BOOTSTRAP_SPAWN_NAMESPACE = 0x424F4F54  # "BOOT"

#: Relative-width denominators are clamped away from zero by this.
_TINY = 1e-12


# ----------------------------------------------------------------------
# grid declaration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: a name and its ordered, distinct values."""

    name: str
    values: "tuple[Any, ...]"

    def __post_init__(self) -> None:
        if not self.name:
            raise SweepError("axis name must be non-empty")
        values = tuple(self.values)
        if not values:
            raise SweepError(f"axis {self.name!r} has no values")
        seen = []
        for value in values:
            if value in seen:
                raise SweepError(
                    f"axis {self.name!r} has duplicate value {value!r}; "
                    "duplicate values would create duplicate configurations"
                )
            seen.append(value)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SweepPoint:
    """One grid configuration: its position and resolved parameters."""

    index: int
    params: "Mapping[str, Any]"


@dataclass
class PointConfig:
    """What one configuration measures: a Monte-Carlo averaging problem.

    A :class:`SweepSpec` builder maps point parameters to this — the
    same ingredients :func:`~repro.engine.averaging_time
    .estimate_averaging_time` takes, minus the replicate count (the
    budget owns that).
    """

    graph: Graph
    algorithm_factory: "Callable[[], GossipAlgorithm]"
    initial_values: "Sequence[float] | Callable[[np.random.Generator], Sequence[float]]"
    clock_factory: "Callable[[np.random.Generator], object] | None" = None
    max_time: "float | None" = None
    max_events: "int | None" = None
    threshold: float = PAPER_VARIANCE_THRESHOLD
    quantile: float = PAPER_CONFIDENCE_QUANTILE
    settle_factor: float = DEFAULT_SETTLE_FACTOR

    def __post_init__(self) -> None:
        if not 0 < self.threshold < 1:
            raise SweepError(f"threshold must be in (0, 1), got {self.threshold}")
        if not 0 < self.quantile < 1:
            raise SweepError(f"quantile must be in (0, 1), got {self.quantile}")
        if self.max_time is None and self.max_events is None:
            raise SweepError("PointConfig needs max_time and/or max_events")


@dataclass(frozen=True)
class SweepSpec:
    """A declared parameter grid plus the builder that realizes a point.

    ``axes x values`` expand (cartesian product, row-major in axis order)
    into :class:`SweepPoint` configurations; ``builder(**params)``
    returns each point's :class:`PointConfig`.  ``base_params`` are fixed
    keyword arguments merged under every point's axis values (an axis may
    not shadow one).
    """

    name: str
    axes: "tuple[SweepAxis, ...]"
    builder: "Callable[..., PointConfig]"
    base_params: "Mapping[str, Any]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        if not axes:
            raise SweepError(f"sweep {self.name!r} declares no axes")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise SweepError(f"sweep {self.name!r} has duplicate axis names")
        shadowed = set(names) & set(self.base_params)
        if shadowed:
            raise SweepError(
                f"sweep {self.name!r}: axes {sorted(shadowed)} shadow "
                "base_params keys"
            )
        if not callable(self.builder):
            raise SweepError(f"sweep {self.name!r} builder must be callable")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "base_params", dict(self.base_params))

    @property
    def n_points(self) -> int:
        """Grid cardinality: the product of the axis sizes."""
        return math.prod(len(axis) for axis in self.axes)

    def expand(self) -> "list[SweepPoint]":
        """Flatten the grid into configurations, in deterministic order.

        The order is the cartesian product with the **last** axis varying
        fastest (row-major), and is part of the reproducibility contract:
        a point's index keys its seed namespace.
        """
        names = [axis.name for axis in self.axes]
        points = []
        for index, combo in enumerate(
            itertools.product(*(axis.values for axis in self.axes))
        ):
            params = dict(self.base_params)
            params.update(zip(names, combo))
            points.append(SweepPoint(index=index, params=params))
        return points

    def with_axis(self, name: str, values: "Sequence[Any]") -> "SweepSpec":
        """A copy with one axis's values replaced (CLI ``--axis`` hook)."""
        if name not in {axis.name for axis in self.axes}:
            raise SweepError(
                f"sweep {self.name!r} has no axis {name!r}; "
                f"axes: {[axis.name for axis in self.axes]}"
            )
        axes = tuple(
            SweepAxis(axis.name, tuple(values)) if axis.name == name else axis
            for axis in self.axes
        )
        return replace(self, axes=axes)


# ----------------------------------------------------------------------
# replicate budgets and the adaptive stopping rule
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicateBudget:
    """How many replicates a configuration gets.

    ``fixed(n)`` runs exactly ``n``.  ``adaptive(...)`` starts with
    ``min_replicates``, then adds ``round_size`` more per round until the
    bootstrap CI on the target quantile has relative width at most
    ``target_ci`` or ``max_replicates`` is reached.
    """

    min_replicates: int = 4
    max_replicates: int = 32
    round_size: int = 4
    target_ci: "float | None" = 0.1
    confidence: float = 0.95
    n_bootstrap: int = 256

    def __post_init__(self) -> None:
        if self.min_replicates < 1:
            raise SweepError(
                f"min_replicates must be positive, got {self.min_replicates}"
            )
        if self.max_replicates < self.min_replicates:
            raise SweepError(
                f"max_replicates ({self.max_replicates}) must be >= "
                f"min_replicates ({self.min_replicates})"
            )
        if self.round_size < 1:
            raise SweepError(f"round_size must be positive, got {self.round_size}")
        if self.target_ci is not None and not self.target_ci > 0:
            raise SweepError(f"target_ci must be positive, got {self.target_ci}")
        if not 0 < self.confidence < 1:
            raise SweepError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.n_bootstrap < 1:
            raise SweepError(f"n_bootstrap must be positive, got {self.n_bootstrap}")

    @classmethod
    def fixed(cls, n_replicates: int) -> "ReplicateBudget":
        """Exactly ``n_replicates`` per configuration, no early stop."""
        return cls(
            min_replicates=n_replicates,
            max_replicates=n_replicates,
            round_size=1,
            target_ci=None,
        )

    @classmethod
    def adaptive(
        cls,
        *,
        target_ci: float = 0.1,
        min_replicates: int = 4,
        max_replicates: int = 32,
        round_size: int = 4,
        confidence: float = 0.95,
        n_bootstrap: int = 256,
    ) -> "ReplicateBudget":
        """CI-driven budget (see class docstring)."""
        return cls(
            min_replicates=min_replicates,
            max_replicates=max_replicates,
            round_size=round_size,
            target_ci=target_ci,
            confidence=confidence,
            n_bootstrap=n_bootstrap,
        )

    @property
    def is_adaptive(self) -> bool:
        """True when the CI stopping rule is armed."""
        return self.target_ci is not None and self.max_replicates > self.min_replicates

    def to_dict(self) -> dict:
        """Plain-dict view for serialization."""
        return {
            "min_replicates": self.min_replicates,
            "max_replicates": self.max_replicates,
            "round_size": self.round_size,
            "target_ci": self.target_ci,
            "confidence": self.confidence,
            "n_bootstrap": self.n_bootstrap,
        }

    def logical_dict(self) -> dict:
        """The budget fields that determine *what* gets reported.

        ``round_size`` is deliberately absent: it is pure scheduling
        (how eagerly surplus replicates are computed) and never changes
        a settled prefix, so results and checkpoints written under
        different round sizes are interchangeable.
        """
        payload = self.to_dict()
        del payload["round_size"]
        return payload

    @classmethod
    def from_dict(cls, payload: "Mapping[str, Any]") -> "ReplicateBudget":
        """Inverse of :meth:`to_dict` (tolerates a missing round_size)."""
        data = dict(payload)
        data.setdefault("round_size", cls.round_size)
        return cls(**data)


def bootstrap_quantile_ci(
    samples: "Sequence[float]",
    quantile: float,
    *,
    confidence: float,
    n_bootstrap: int,
    seed_sequence: np.random.SeedSequence,
) -> "tuple[float, float]":
    """Deterministic percentile-bootstrap CI for the target quantile.

    Resamples with replacement ``n_bootstrap`` times, takes the same
    order-statistic quantile per resample, and returns the empirical
    ``(1 +- confidence)/2`` order statistics of those (no interpolation,
    so ``inf`` statistics stay honest instead of poisoning arithmetic).
    All randomness comes from ``seed_sequence``.
    """
    array = np.asarray(samples, dtype=np.float64)
    n = len(array)
    if n < 2:
        return float("-inf"), float("inf")
    rng = np.random.default_rng(seed_sequence)
    draws = rng.integers(0, n, size=(int(n_bootstrap), n))
    resampled = np.sort(array[draws], axis=1)
    stats = np.sort(resampled[:, quantile_index(n, quantile)])
    alpha = (1.0 - confidence) / 2.0
    low_index = min(int(math.floor(alpha * len(stats))), len(stats) - 1)
    high_index = max(int(math.ceil((1.0 - alpha) * len(stats))) - 1, 0)
    return float(stats[low_index]), float(stats[high_index])


def _ci_is_tight(
    low: float, high: float, estimate: float, target_ci: float
) -> bool:
    """Relative CI width test; inf/NaN anywhere means "not tight"."""
    if not (math.isfinite(low) and math.isfinite(high) and math.isfinite(estimate)):
        return False
    return (high - low) / max(abs(estimate), _TINY) <= target_ci


@dataclass(frozen=True)
class StopDecision:
    """Outcome of the prefix-scan stopping rule for one configuration.

    ``n_used`` is the settled replicate count (``None`` while the point
    still wants more replicates); when settled, ``ci_low``/``ci_high``
    are the bootstrap CI at exactly that prefix.
    """

    n_used: "int | None"
    budget_exhausted: bool = False
    ci_low: float = float("-inf")
    ci_high: float = float("inf")


def evaluate_stopping(
    samples: "Sequence[float]",
    budget: ReplicateBudget,
    quantile: float,
    point_sequence: np.random.SeedSequence,
    *,
    scan_from: "int | None" = None,
) -> StopDecision:
    """Decide whether (and where) a configuration's sample prefix settles.

    Scans prefixes ``n = min_replicates .. len(samples)`` in replicate
    order and returns the smallest ``n`` whose bootstrap CI on the target
    quantile is tight — a function of the sample *sequence* only, so the
    decision is identical no matter how the samples were scheduled
    (backend, worker count, round size).  NaN (diverged) samples are
    excluded from the quantile and the CI but still occupy budget slots,
    so an all-NaN configuration runs to the cap and terminates instead of
    stalling.  The bootstrap generator is keyed by the point's seed
    namespace and the prefix length, never by global state.

    ``scan_from`` skips prefixes a previous call already rejected (the
    bootstrap is deterministic per prefix, so re-evaluating them can
    only repeat the "not tight" verdict); the scheduler passes the first
    unscanned length each round.  The decision is identical with or
    without it.
    """
    total = len(samples)
    bootstrap_root = derive_child(point_sequence, BOOTSTRAP_SPAWN_NAMESPACE)

    def ci_at(n: int) -> "tuple[float, float, float]":
        prefix = np.asarray(samples[:n], dtype=np.float64)
        valid = prefix[~np.isnan(prefix)]
        estimate = quantile_estimate(valid, quantile)
        low, high = bootstrap_quantile_ci(
            valid,
            quantile,
            confidence=budget.confidence,
            n_bootstrap=budget.n_bootstrap,
            seed_sequence=derive_child(bootstrap_root, n),
        )
        return estimate, low, high

    if budget.target_ci is not None:
        first = budget.min_replicates
        if scan_from is not None:
            first = max(first, scan_from)
        for n in range(first, total + 1):
            estimate, low, high = ci_at(n)
            if _ci_is_tight(low, high, estimate, budget.target_ci):
                return StopDecision(n_used=n, ci_low=low, ci_high=high)
    if total >= budget.max_replicates:
        _, low, high = ci_at(budget.max_replicates)
        return StopDecision(
            n_used=budget.max_replicates,
            budget_exhausted=budget.target_ci is not None,
            ci_low=low,
            ci_high=high,
        )
    return StopDecision(n_used=None)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


def _encode_float(value: float) -> "float | str":
    """JSON-portable float: non-finite values become strings."""
    if math.isnan(value):
        return "nan"
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return float(value)


def _decode_float(value: "float | int | str") -> float:
    if isinstance(value, str):
        return float(value)
    return float(value)


@dataclass
class PointResult:
    """One configuration's settled measurement.

    ``samples`` are the first ``n_replicates`` crossing-time samples in
    replicate order (``inf`` = censored, NaN = diverged) — exactly the
    prefix the stopping rule settled on, so the record is independent of
    scheduling.  ``estimate`` is the target quantile over the non-NaN
    samples; ``ci_low``/``ci_high`` the bootstrap CI at the settled
    prefix.
    """

    index: int
    params: "dict[str, Any]"
    estimate: float
    ci_low: float
    ci_high: float
    quantile: float
    threshold: float
    samples: "list[float]"
    n_censored: int
    n_diverged: int
    budget_exhausted: bool

    @property
    def n_replicates(self) -> int:
        """Replicates consumed by this configuration."""
        return len(self.samples)

    @property
    def is_censored(self) -> bool:
        """True when the quantile itself is not finite.

        ``inf`` means the quantile landed on censored replicates; ``nan``
        means every valid replicate diverged.  Either way the estimate is
        not a usable averaging time — the sweep analogue of
        ``AveragingTimeEstimate.is_censored`` (``not isfinite``), which
        the report functions read to label cells "censored".
        """
        return not math.isfinite(self.estimate)

    @property
    def ci_width(self) -> float:
        """Absolute CI width (inf when either end is non-finite)."""
        return self.ci_high - self.ci_low

    @property
    def ci_relative_width(self) -> float:
        """CI width relative to the estimate (the adaptive target)."""
        if not (
            math.isfinite(self.ci_low)
            and math.isfinite(self.ci_high)
            and math.isfinite(self.estimate)
        ):
            return float("inf")
        return self.ci_width / max(abs(self.estimate), _TINY)

    def to_dict(self) -> dict:
        """Plain-dict view (JSON-portable floats)."""
        return {
            "index": self.index,
            "params": dict(self.params),
            "estimate": _encode_float(self.estimate),
            "ci_low": _encode_float(self.ci_low),
            "ci_high": _encode_float(self.ci_high),
            "quantile": self.quantile,
            "threshold": self.threshold,
            "samples": [_encode_float(s) for s in self.samples],
            "n_censored": self.n_censored,
            "n_diverged": self.n_diverged,
            "budget_exhausted": self.budget_exhausted,
        }

    @classmethod
    def from_dict(cls, payload: "Mapping[str, Any]") -> "PointResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(payload["index"]),
            params=dict(payload["params"]),
            estimate=_decode_float(payload["estimate"]),
            ci_low=_decode_float(payload["ci_low"]),
            ci_high=_decode_float(payload["ci_high"]),
            quantile=float(payload["quantile"]),
            threshold=float(payload["threshold"]),
            samples=[_decode_float(s) for s in payload["samples"]],
            n_censored=int(payload["n_censored"]),
            n_diverged=int(payload["n_diverged"]),
            budget_exhausted=bool(payload["budget_exhausted"]),
        )


@dataclass
class SweepResult:
    """A whole sweep's aggregation: per-point quantiles plus CI widths.

    Everything here is a deterministic function of (spec, seed, budget) —
    scheduling telemetry lives in :attr:`SweepRunner.stats` instead, so
    this object is bit-identical across backends, worker counts and
    round sizes and safe to diff as JSON.
    """

    sweep_name: str
    axes: "dict[str, list]"
    seed: "int | None"
    budget: ReplicateBudget
    points: "list[PointResult]"

    @property
    def n_points(self) -> int:
        """Number of grid configurations."""
        return len(self.points)

    @property
    def total_replicates(self) -> int:
        """Replicates consumed across the grid (settled prefixes only)."""
        return sum(point.n_replicates for point in self.points)

    def point(self, **params: Any) -> PointResult:
        """Look up the unique point matching the given axis values."""
        matches = [
            p for p in self.points
            if all(p.params.get(k) == v for k, v in params.items())
        ]
        if len(matches) != 1:
            raise SweepError(
                f"{len(matches)} points match {params!r} "
                f"in sweep {self.sweep_name!r}"
            )
        return matches[0]

    def to_dict(self) -> dict:
        """Plain-dict view for serialization/checkpointing."""
        return {
            "sweep_name": self.sweep_name,
            "axes": {name: list(values) for name, values in self.axes.items()},
            "seed": self.seed,
            # Logical budget only: round_size is scheduling and must not
            # break bit-identity of results across round sizes.
            "budget": self.budget.logical_dict(),
            "points": [point.to_dict() for point in self.points],
        }

    @classmethod
    def from_dict(cls, payload: "Mapping[str, Any]") -> "SweepResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            sweep_name=str(payload["sweep_name"]),
            axes={k: list(v) for k, v in payload["axes"].items()},
            seed=payload["seed"],
            budget=ReplicateBudget.from_dict(payload["budget"]),
            points=[PointResult.from_dict(p) for p in payload["points"]],
        )

    def save(self, path: "str | Path") -> Path:
        """Write the result as JSON (sorted keys — diffable)."""
        from repro.util.serialization import to_json_file

        return to_json_file(self.to_dict(), path)

    @classmethod
    def load(cls, path: "str | Path") -> "SweepResult":
        """Read a result written by :meth:`save`."""
        from repro.util.serialization import from_json_file

        return cls.from_dict(from_json_file(path))


def sweep_fingerprint_payload(
    spec: SweepSpec,
    seed: "int | np.random.SeedSequence | None",
    budget: ReplicateBudget,
) -> dict:
    """The JSON-able identity of what a sweep run would compute.

    Everything that determines the reported :class:`SweepResult` is here
    — name, axes, base_params, builder identity, seed, logical budget —
    and nothing that doesn't (backend, worker count, round size and
    kernel are scheduling, proven scheduling-independent by the
    determinism suite).  Checkpoint resume compares this payload for
    equality; the results store (:mod:`repro.engine.store`) hashes it
    into the content-addressed fingerprint that dedups identical sweep
    submissions.
    """
    from repro.util.serialization import to_jsonable

    return to_jsonable({
        "sweep_name": spec.name,
        "axes": {a.name: list(a.values) for a in spec.axes},
        # base_params and the builder identity pin the *graphs* a
        # point measures: two scales of the same sweep share name,
        # axes and seed but differ here, and resuming across them
        # would silently mix instances.
        "base_params": dict(spec.base_params),
        "builder": getattr(spec.builder, "__qualname__", repr(spec.builder)),
        "seed": seed if not isinstance(seed, np.random.SeedSequence)
        else repr(seed),
        # Logical budget only: resuming under a different round size
        # is legitimate (the settled prefixes are identical).
        "budget": budget.logical_dict(),
    })


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------


class _PointState:
    """Mutable per-configuration bookkeeping while a sweep runs."""

    def __init__(self, point: SweepPoint, config: PointConfig,
                 runner: MonteCarloRunner, sequence: np.random.SeedSequence,
                 monotone: bool) -> None:
        self.point = point
        self.config = config
        self.runner = runner
        self.sequence = sequence
        self.monotone = monotone
        self.samples: "list[float]" = []
        self.run_results: "list[RunResult]" = []
        self.n_scheduled = 0
        #: First prefix length not yet scanned by the stopping rule
        #: (prior prefixes were rejected; the bootstrap is deterministic
        #: per prefix, so rescanning them cannot change the verdict).
        self.scan_from = 0
        self.result: "PointResult | None" = None


class SweepRunner:
    """Execute a :class:`SweepSpec` through one execution backend.

    Parameters
    ----------
    spec:
        The grid and point builder.
    seed:
        Sweep root seed; configuration ``i`` derives the namespace
        ``(SWEEP_SPAWN_NAMESPACE, i)`` so streams are disjoint between
        configurations and from any caller streams on the same root.
    budget:
        Replicate budget per configuration (default: fixed 8).
    backend / n_workers:
        Execution backend selection, exactly as for
        :class:`~repro.engine.runner.MonteCarloRunner`.
    checkpoint_path:
        Optional JSON path written atomically after every round with the
        settled points so far *plus* every pending configuration's
        sample prefix; an existing file resumes the sweep — settled
        configurations are skipped outright, pending ones reschedule
        from their checkpointed prefix — and the resumed run's artifact
        is byte-identical to an uninterrupted one, even after a crash
        mid-round.
    keep_run_results:
        Retain each settled configuration's raw :class:`RunResult` list
        (trimmed to the settled prefix) in :attr:`run_results` — the
        determinism suite compares them field-by-field.
    share_state:
        Ship each configuration's immutable state (graph, factories,
        workload) through :meth:`ExecutionBackend.execute_shared` — once
        per worker via the executor initializer on the process backend —
        instead of pickling it into every replicate spec (default).
        Purely a transport choice: results are bit-identical either way
        (the determinism suite pins this), so disable it only to measure
        the shipping itself.
    kernel:
        Simulation-kernel request stamped on every replicate spec
        (``"auto"``, ``"scalar"`` or ``"vectorized"`` — see
        :mod:`repro.engine.kernels`); ``None`` falls back to the
        ``REPRO_KERNEL`` environment variable, then ``"auto"``.  Because
        every round batches same-configuration replicate windows,
        eligible windows advance in numpy lockstep; results are
        bit-identical across kernels, and ``stats["kernel_installs"]`` /
        ``stats["vectorized_replicates"]`` report which path engaged.
    """

    def __init__(
        self,
        spec: SweepSpec,
        *,
        seed: "int | np.random.SeedSequence | None" = None,
        budget: "ReplicateBudget | None" = None,
        backend: "ExecutionBackend | str | None" = None,
        n_workers: "int | None" = None,
        checkpoint_path: "str | Path | None" = None,
        keep_run_results: bool = False,
        share_state: bool = True,
        kernel: "str | None" = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.budget = budget if budget is not None else ReplicateBudget.fixed(8)
        self.backend = resolve_backend(backend, n_workers=n_workers)
        self.kernel = kernel
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.keep_run_results = keep_run_results
        self.share_state = share_state
        #: Raw results per settled point index (when ``keep_run_results``).
        self.run_results: "dict[int, list[RunResult]]" = {}
        #: Scheduling telemetry from the last :meth:`run` (wall-clock
        #: facts, deliberately NOT part of SweepResult): rounds executed,
        #: replicates scheduled (including surplus beyond the settled
        #: prefixes), and points resumed from a checkpoint.
        self.stats: "dict[str, int]" = {}

    # -- seed bookkeeping ------------------------------------------------

    def _root_sequence(self) -> np.random.SeedSequence:
        if isinstance(self.seed, np.random.SeedSequence):
            return derive_child(self.seed, SWEEP_SPAWN_NAMESPACE)
        return np.random.SeedSequence(
            entropy=self.seed, spawn_key=(SWEEP_SPAWN_NAMESPACE,)
        )

    def point_sequence(self, point_index: int) -> np.random.SeedSequence:
        """The seed namespace of configuration ``point_index``."""
        return derive_child(self._root_sequence(), point_index)

    @staticmethod
    def _state_key(point_index: int) -> str:
        """Shared-state mapping key of configuration ``point_index``."""
        return f"point:{point_index}"

    # -- checkpointing ---------------------------------------------------

    def fingerprint_payload(self) -> dict:
        """This runner's :func:`sweep_fingerprint_payload`."""
        return sweep_fingerprint_payload(self.spec, self.seed, self.budget)

    def _load_checkpoint(
        self,
    ) -> "tuple[dict[int, PointResult], dict[int, list[float]]]":
        """Read a checkpoint: (settled points, partial pending samples).

        A truncated or otherwise corrupt file raises a clear
        :class:`SweepError` instead of crashing mid-parse — writes are
        atomic (:func:`~repro.util.serialization.to_json_file`), so a
        corrupt checkpoint means external damage, not a torn write.
        """
        if self.checkpoint_path is None or not self.checkpoint_path.exists():
            return {}, {}
        from repro.util.serialization import from_json_file

        try:
            payload = from_json_file(self.checkpoint_path)
        except SerializationError as exc:
            raise SweepError(
                f"checkpoint {self.checkpoint_path} is unreadable ({exc}); "
                "it was damaged after being written — delete it to restart "
                "the sweep from scratch"
            ) from exc
        if not isinstance(payload, dict) or "fingerprint" not in payload:
            raise SweepError(
                f"checkpoint {self.checkpoint_path} is not a sweep "
                "checkpoint (no fingerprint); delete it or point the "
                "runner elsewhere"
            )
        fingerprint = payload.get("fingerprint")
        if fingerprint != self.fingerprint_payload():
            raise SweepError(
                f"checkpoint {self.checkpoint_path} belongs to a different "
                "sweep (name/axes/seed/budget mismatch); delete it or point "
                "the runner elsewhere"
            )
        try:
            done = {}
            for entry in payload.get("points", []):
                result = PointResult.from_dict(entry)
                done[result.index] = result
            partial = {}
            for entry in payload.get("partial", []):
                partial[int(entry["index"])] = [
                    _decode_float(s) for s in entry["samples"]
                ]
        except (KeyError, TypeError, ValueError) as exc:
            raise SweepError(
                f"checkpoint {self.checkpoint_path} is structurally corrupt "
                f"({type(exc).__name__}: {exc}); delete it to restart the "
                "sweep from scratch"
            ) from exc
        return done, partial

    def _write_checkpoint(
        self,
        done: "dict[int, PointResult]",
        pending: "Sequence[_PointState] | None" = None,
    ) -> None:
        """Atomically persist settled points plus pending samples.

        Written after *every* round, so a crash loses at most the round
        in flight: resume restores each pending point's sample prefix
        and reschedules from there, reproducing the
        uninterrupted run byte-for-byte (every sample is a pure function
        of (point, replicate index), and the stopping rule's verdict is
        a deterministic function of each sample prefix).
        """
        if self.checkpoint_path is None:
            return
        from repro.util.serialization import to_json_file

        to_json_file(
            {
                "fingerprint": self.fingerprint_payload(),
                "points": [
                    done[index].to_dict() for index in sorted(done)
                ],
                "partial": [
                    {
                        "index": state.point.index,
                        "samples": [
                            _encode_float(s) for s in state.samples
                        ],
                    }
                    for state in (pending or [])
                    if state.samples
                ],
            },
            self.checkpoint_path,
        )

    # -- execution -------------------------------------------------------

    def _prepare_state(self, point: SweepPoint) -> _PointState:
        config = self.spec.builder(**point.params)
        if not isinstance(config, PointConfig):
            raise SweepError(
                f"sweep {self.spec.name!r} builder returned "
                f"{type(config).__name__}, expected PointConfig"
            )
        probe = config.algorithm_factory()
        monotone = bool(probe.monotone_variance)
        sequence = self.point_sequence(point.index)
        runner = MonteCarloRunner(
            config.graph,
            config.algorithm_factory,
            config.initial_values,
            seed=sequence,
            clock_factory=config.clock_factory,
            backend="serial",  # spec building only; execution is batched
            kernel=self.kernel,
        )
        return _PointState(point, config, runner, sequence, monotone)

    @staticmethod
    def _run_kwargs(config: PointConfig, monotone: bool) -> dict:
        target_ratio = (
            config.threshold if monotone
            else config.threshold * config.settle_factor
        )
        return {
            "target_ratio": target_ratio,
            "max_time": config.max_time,
            "max_events": config.max_events,
            "thresholds": (config.threshold,),
        }

    def _sample(self, state: _PointState, result: RunResult) -> float:
        if math.isnan(result.variance_final):
            # Diverged replicate: no crossing time is meaningful.  NaN
            # samples are excluded from the quantile/CI but still count
            # toward the cap, so divergence cannot stall the sweep.
            return float("nan")
        sample, _censored = crossing_sample(
            result, state.config.threshold, state.monotone
        )
        return sample

    def _settle(self, state: _PointState, decision: StopDecision) -> PointResult:
        n_used = decision.n_used
        assert n_used is not None
        samples = state.samples[:n_used]
        array = np.asarray(samples, dtype=np.float64)
        nan_mask = np.isnan(array)
        valid = array[~nan_mask]
        estimate = quantile_estimate(valid, state.config.quantile)
        result = PointResult(
            index=state.point.index,
            params=dict(state.point.params),
            estimate=estimate,
            ci_low=decision.ci_low,
            ci_high=decision.ci_high,
            quantile=state.config.quantile,
            threshold=state.config.threshold,
            samples=[float(s) for s in samples],
            n_censored=int(np.sum(np.isinf(array))),
            n_diverged=int(np.sum(nan_mask)),
            budget_exhausted=decision.budget_exhausted,
        )
        if self.keep_run_results:
            self.run_results[state.point.index] = state.run_results[:n_used]
        return result

    def _warn_explicit_demotions(self, states: "Sequence[_PointState]") -> None:
        """Warn once per sweep when forced ``vectorized`` points demote.

        ``auto`` demotes silently by design (it is a performance policy);
        an **explicit** ``--kernel vectorized`` is a user assertion that
        the fast path runs, so ineligible points get one
        :class:`~repro.engine.kernels.KernelDemotionWarning` listing the
        machine-readable reason codes before any replicate executes.
        """
        kernel = (
            default_kernel()
            if self.kernel is None
            else normalize_kernel(self.kernel)
        )
        if kernel != "vectorized":
            return
        demoted = []
        for state in states:
            verdict = eligibility(
                algorithm_factory=state.config.algorithm_factory,
                clock_factory=state.config.clock_factory,
                run_kwargs=self._run_kwargs(state.config, state.monotone),
            )
            if not verdict:
                demoted.append((state.point.index, verdict))
        if not demoted:
            return
        points = ", ".join(
            f"point {index} [{', '.join(verdict.codes)}]"
            for index, verdict in demoted
        )
        warnings.warn(
            f"sweep {self.spec.name!r}: --kernel vectorized demotes "
            f"{len(demoted)} of {len(states)} configuration(s) to the "
            f"scalar loop: {points}; run 'kernel explain' on this sweep "
            "for the full verdicts",
            KernelDemotionWarning,
            stacklevel=3,
        )

    def run(self) -> SweepResult:
        """Run the sweep to completion and return its aggregation.

        Each round batches the next replicate window of **every**
        unsettled configuration into one ``backend.execute`` call, so the
        whole grid shares the worker pool; the adaptive rule then settles
        whichever configurations have tight prefixes (see the module
        docstring for why the outcome is scheduling-independent).
        """
        points = self.spec.expand()
        done, partial = self._load_checkpoint()
        self.run_results = {}
        self.stats = {
            "rounds": 0,
            "replicates_scheduled": 0,
            "points_resumed": len(done),
            "replicates_resumed": sum(len(s) for s in partial.values()),
        }
        # Kernel-engagement counters are cumulative on the backend (it
        # may be shared across sweeps); snapshotting lets this run's
        # stats report only its own replicates.
        kernel_before = dict(getattr(self.backend, "kernel_stats", None) or {})
        states = [
            self._prepare_state(point)
            for point in points
            if point.index not in done
        ]
        self._warn_explicit_demotions(states)
        # Resume pending points from their checkpointed sample prefix: a
        # sample is a pure function of (point, replicate index), so
        # rescheduling from n_scheduled = len(samples) reproduces the
        # uninterrupted run exactly, and rescanning already-rejected
        # prefixes (scan_from stays 0) repeats their verdicts — the
        # final artifact is byte-identical to a crash-free run.
        for state in states:
            restored = partial.get(state.point.index)
            if restored:
                state.samples = list(restored)
                state.n_scheduled = len(restored)
        # One mapping object for the whole sweep (identity-stable, so the
        # process backend installs it in its workers exactly once): every
        # unsettled configuration's immutable state, keyed by point index.
        shared_state: "dict[str, Any]" = {
            self._state_key(state.point.index): state.runner.shared_state()
            for state in states
        }
        if self.share_state:
            self.stats["shared_state_points"] = len(shared_state)
        pending = list(states)
        while pending:
            batch = []
            owners: "list[tuple[_PointState, int]]" = []
            for state in pending:
                if state.n_scheduled == 0:
                    want = self.budget.min_replicates
                else:
                    want = self.budget.round_size
                want = min(want, self.budget.max_replicates - state.n_scheduled)
                if want < 1:
                    # Unreachable under the stopping rule (a point at the
                    # cap settles immediately), but never build an empty
                    # window if that invariant ever changes.
                    continue
                specs = state.runner.build_specs(
                    want,
                    start=state.n_scheduled,
                    shared_key=(
                        self._state_key(state.point.index)
                        if self.share_state
                        else None
                    ),
                    **self._run_kwargs(state.config, state.monotone),
                )
                state.n_scheduled += want
                for spec in specs:
                    batch.append(spec)
                    owners.append((state, spec.index))
            results = execute_with_retry(
                self.backend,
                batch,
                shared_state=shared_state if self.share_state else None,
            )
            if len(results) != len(batch):
                raise SweepError(
                    f"backend {self.backend.name!r} returned {len(results)} "
                    f"results for {len(batch)} sweep replicates"
                )
            self.stats["rounds"] += 1
            self.stats["replicates_scheduled"] += len(batch)
            for (state, _replicate_index), result in zip(owners, results):
                state.samples.append(self._sample(state, result))
                if self.keep_run_results:
                    state.run_results.append(result)
            still_pending = []
            for state in pending:
                decision = evaluate_stopping(
                    state.samples, self.budget,
                    state.config.quantile, state.sequence,
                    scan_from=state.scan_from,
                )
                state.scan_from = len(state.samples) + 1
                if decision.n_used is None:
                    still_pending.append(state)
                else:
                    done[state.point.index] = self._settle(state, decision)
            pending = still_pending
            # Every round, not just on settlement: a crash then loses at
            # most the round in flight (crash-safe resume).
            self._write_checkpoint(done, pending)
        # Surface which simulation kernel actually executed this sweep's
        # replicates (fast-path verification: a benchmark claiming
        # vectorized throughput must see vectorized_replicates > 0).
        kernel_after = getattr(self.backend, "kernel_stats", None) or {}
        canonical = ("kernel_installs", "vectorized_replicates", "scalar_replicates")
        for key in sorted(set(kernel_before) | set(kernel_after) | set(canonical)):
            delta = int(kernel_after.get(key, 0)) - int(kernel_before.get(key, 0))
            if delta or key in canonical:
                self.stats[key] = delta
        return SweepResult(
            sweep_name=self.spec.name,
            axes={axis.name: list(axis.values) for axis in self.spec.axes},
            seed=(
                self.seed
                if not isinstance(self.seed, np.random.SeedSequence)
                else None
            ),
            budget=self.budget,
            points=[done[point.index] for point in points],
        )


def run_sweep(
    spec: SweepSpec,
    *,
    seed: "int | None" = None,
    budget: "ReplicateBudget | None" = None,
    backend: "ExecutionBackend | str | None" = None,
    n_workers: "int | None" = None,
    checkpoint_path: "str | Path | None" = None,
    share_state: bool = True,
    kernel: "str | None" = None,
) -> SweepResult:
    """One-shot convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(
        spec,
        seed=seed,
        budget=budget,
        backend=backend,
        n_workers=n_workers,
        checkpoint_path=checkpoint_path,
        share_state=share_state,
        kernel=kernel,
    ).run()
