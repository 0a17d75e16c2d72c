"""The public kernel-eligibility API.

Whether a :class:`~repro.engine.backends.ReplicateSpec` can take the
vectorized lockstep path is a three-part question — is the algorithm's
per-tick update registered, is the clock model one the kernel can
replay, are the run kwargs within the lockstep loop's support — and the
answer matters beyond the dispatcher: sweep telemetry reports *why* a
replicate ran scalar, ``repro-experiments kernel explain`` prints the
verdict per configuration, and an explicitly requested ``vectorized``
kernel warns instead of silently demoting.  This module owns that
question:

* :func:`eligibility` returns a :class:`KernelEligibility` verdict with
  machine-readable :class:`EligibilityReason` codes (empty when
  eligible);
* :func:`register_update` is the extension point: registering a
  vectorized update builder for an algorithm type makes that algorithm
  eligible everywhere — dispatcher, telemetry, CLI — with no other code
  change;
* the built-in registrations live with their update implementations in
  :mod:`repro.engine.kernels.vectorized` (imported lazily here, so
  importing this module alone still sees the full registry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.clocks.poisson import PoissonClockFactory
from repro.clocks.unreliable import (
    FailingPoissonClockFactory,
    LossyPoissonClockFactory,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.backends import ReplicateSpec

#: The algorithm type has no registered vectorized update rule.
ALGORITHM_UNSUPPORTED = "algorithm-unsupported"

#: The clock factory builds a process the lockstep loop cannot replay.
CLOCK_UNSUPPORTED = "clock-unsupported"

#: ``run()`` kwargs outside the lockstep loop's supported set.
RUN_KWARG_UNSUPPORTED = "run-kwarg-unsupported"

#: A ``TraceRecorder`` is attached (per-event sampling is scalar-only).
RECORDER_ATTACHED = "recorder-attached"

#: Policy, not eligibility: an ``auto``-mode group narrower than
#: ``AUTO_MIN_BATCH`` ran scalar because lockstep would not amortize.
AUTO_BATCH_BELOW_MIN = "auto-batch-below-min"

#: Every reason code :func:`eligibility` (or the dispatcher's telemetry)
#: can emit.
REASON_CODES = (
    ALGORITHM_UNSUPPORTED,
    CLOCK_UNSUPPORTED,
    RUN_KWARG_UNSUPPORTED,
    RECORDER_ATTACHED,
    AUTO_BATCH_BELOW_MIN,
)

#: run() kwargs the lockstep loop implements; anything else disqualifies
#: the spec (the scalar kernel is the one that knows how to reject it).
SUPPORTED_RUN_KWARGS = frozenset(
    {
        "max_time",
        "max_events",
        "target_ratio",
        "thresholds",
        "recorder",
        "divergence_ratio",
    }
)

#: Clock-factory types the vectorized kernel can replay bit-identically:
#: the standard Poisson model plus the lossy/failing wrappers (their
#: dropped/dead ticks never reach the event stream, so the lockstep loop
#: sees exactly the scalar loop's delivered ticks).  ``None`` (the
#: default per-replicate Poisson clock) is also eligible.
SUPPORTED_CLOCK_FACTORIES = (
    PoissonClockFactory,
    LossyPoissonClockFactory,
    FailingPoissonClockFactory,
)


class KernelDemotionWarning(UserWarning):
    """An explicitly requested ``vectorized`` kernel fell back to scalar."""


@dataclass(frozen=True)
class EligibilityReason:
    """One machine-readable cause of a scalar demotion."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class KernelEligibility:
    """The vectorized kernel's verdict on one configuration.

    Truthiness follows ``eligible``, so ``if eligibility(spec): ...``
    reads naturally; ``reasons`` is empty exactly when eligible.
    """

    eligible: bool
    reasons: "tuple[EligibilityReason, ...]" = ()

    def __bool__(self) -> bool:
        return self.eligible

    @property
    def codes(self) -> "tuple[str, ...]":
        """The reason codes alone (stable, machine-comparable)."""
        return tuple(reason.code for reason in self.reasons)

    def describe(self) -> str:
        """One-line human rendering of the verdict."""
        if self.eligible:
            return "eligible"
        return "; ".join(str(reason) for reason in self.reasons)


# ----------------------------------------------------------------------
# the update registry (the register_update extension point)
# ----------------------------------------------------------------------

_UPDATE_BUILDERS: "dict[type, Callable[[Any], Any]]" = {}


def register_update(
    algorithm_type: type,
) -> "Callable[[Callable[[Any], Any]], Callable[[Any], Any]]":
    """Register a vectorized-update builder for an algorithm type.

    Decorator form::

        @register_update(MyGossip)
        def _build_my_gossip(algorithm):
            return _MyVectorizedUpdate(algorithm.some_parameter)

    The builder receives an algorithm *instance* and returns the kernel's
    per-tick update object.  Registration is keyed by **exact type** (not
    ``isinstance``) on purpose: a subclass overriding ``on_tick`` must
    never silently take the fast path with the parent's update rule —
    register the subclass explicitly once its vectorized rule exists.
    The last registration for a type wins, so tests can shadow a builder
    and restore it.
    """
    if not isinstance(algorithm_type, type):
        raise TypeError(
            f"register_update expects an algorithm type, got {algorithm_type!r}"
        )

    def decorate(builder: "Callable[[Any], Any]") -> "Callable[[Any], Any]":
        _UPDATE_BUILDERS[algorithm_type] = builder
        return builder

    return decorate


def registered_update_types() -> "tuple[type, ...]":
    """The algorithm types currently registered, in registration order."""
    _ensure_builtin_updates()
    return tuple(_UPDATE_BUILDERS)


def resolve_update(algorithm: object) -> "object | None":
    """The vectorized update rule for ``algorithm`` (None = not eligible)."""
    _ensure_builtin_updates()
    builder = _UPDATE_BUILDERS.get(type(algorithm))
    return None if builder is None else builder(algorithm)


def _ensure_builtin_updates() -> None:
    """Populate the registry with the built-in updates on first use.

    The builders live next to their update classes in ``vectorized.py``;
    importing it registers them.  Lazy (and re-entrant via the module
    cache) so ``eligibility`` can be imported first without a cycle.
    """
    if not _UPDATE_BUILDERS:
        import repro.engine.kernels.vectorized  # noqa: F401


# ----------------------------------------------------------------------
# the verdict
# ----------------------------------------------------------------------


def algorithm_reason(algorithm: object) -> "EligibilityReason | None":
    """Why this algorithm instance cannot vectorize (None = it can)."""
    if resolve_update(algorithm) is not None:
        return None
    registered = ", ".join(t.__name__ for t in registered_update_types())
    return EligibilityReason(
        ALGORITHM_UNSUPPORTED,
        f"{type(algorithm).__name__} has no registered vectorized update "
        f"(registered: {registered}); see "
        "repro.engine.kernels.register_update",
    )


def clock_reason(clock_factory: "object | None") -> "EligibilityReason | None":
    """Why this clock factory cannot vectorize (None = it can)."""
    if clock_factory is None or isinstance(clock_factory, SUPPORTED_CLOCK_FACTORIES):
        return None
    supported = ", ".join(t.__name__ for t in SUPPORTED_CLOCK_FACTORIES)
    return EligibilityReason(
        CLOCK_UNSUPPORTED,
        f"{type(clock_factory).__name__} is not a supported clock model "
        f"(supported: default Poisson, {supported})",
    )


def run_kwargs_reasons(
    run_kwargs: "Mapping[str, Any]",
) -> "tuple[EligibilityReason, ...]":
    """Why these run kwargs cannot vectorize (empty = they can)."""
    reasons = []
    unknown = sorted(key for key in run_kwargs if key not in SUPPORTED_RUN_KWARGS)
    if unknown:
        reasons.append(
            EligibilityReason(
                RUN_KWARG_UNSUPPORTED,
                f"run kwargs {unknown} are outside the lockstep loop's "
                f"support ({sorted(SUPPORTED_RUN_KWARGS)})",
            )
        )
    if run_kwargs.get("recorder") is not None:
        reasons.append(
            EligibilityReason(
                RECORDER_ATTACHED,
                "a TraceRecorder samples every event; per-event traces "
                "are scalar-only",
            )
        )
    return tuple(reasons)


def eligibility(
    spec: "ReplicateSpec | None" = None,
    *,
    algorithm_factory: "Callable[[], object] | None" = None,
    clock_factory: "object | None" = None,
    run_kwargs: "Mapping[str, Any] | None" = None,
) -> KernelEligibility:
    """The vectorized kernel's verdict for a spec (or its parts).

    Pass a :class:`~repro.engine.backends.ReplicateSpec` (anything with
    ``algorithm_factory`` / ``clock_factory`` / ``run_kwargs``
    attributes), or the three parts as keywords — the keyword form is
    what the sweep scheduler and the ``kernel explain`` CLI use, where no
    spec object exists yet.
    """
    if spec is not None:
        algorithm_factory = spec.algorithm_factory
        clock_factory = spec.clock_factory
        run_kwargs = spec.run_kwargs
    elif algorithm_factory is None:
        raise TypeError(
            "eligibility() needs a spec or an algorithm_factory keyword"
        )
    reasons: "list[EligibilityReason]" = []
    reason = algorithm_reason(algorithm_factory())
    if reason is not None:
        reasons.append(reason)
    reason = clock_reason(clock_factory)
    if reason is not None:
        reasons.append(reason)
    reasons.extend(run_kwargs_reasons(run_kwargs or {}))
    return KernelEligibility(eligible=not reasons, reasons=tuple(reasons))
