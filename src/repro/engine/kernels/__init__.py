"""Pluggable simulation kernels and the per-spec kernel dispatcher.

The execution backends (:mod:`repro.engine.backends`) decide *where*
replicates run; kernels decide *how*.  :func:`execute_specs` is the one
dispatch point: it groups a batch of resolved
:class:`~repro.engine.backends.ReplicateSpec` work orders by
configuration, sends eligible groups through the
:class:`~repro.engine.kernels.vectorized.VectorizedBatchKernel` and
everything else through the
:class:`~repro.engine.kernels.scalar.ScalarKernel`, and returns results
in submission order.  Results are bit-identical regardless of kernel,
grouping, or batch composition — see ``docs/kernels.md``.

Kernel choice rides on each spec's ``kernel`` field:

* ``"scalar"`` — always the scalar event loop;
* ``"vectorized"`` — the lockstep kernel for every eligible spec (any
  group size, including 1); ineligible specs still fall back to scalar;
* ``"auto"`` (default) — vectorize eligible groups of at least
  :data:`AUTO_MIN_BATCH` replicates, where the batch is wide enough for
  the numpy-call overhead to amortize below the scalar loop's cost.

Whether a spec *can* vectorize is the :func:`eligibility` verdict — a
:class:`KernelEligibility` with machine-readable reason codes, public so
sweep telemetry, the ``kernel explain`` CLI, and third-party algorithms
(via :func:`register_update`) all share the dispatcher's answer.  Every
scalar demotion is counted in ``stats`` under a ``demoted:<code>`` key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.engine.kernels.base import (
    KERNEL_CHOICES,
    KERNEL_ENV_VAR,
    SimulationKernel,
    default_kernel,
    new_kernel_stats,
    normalize_kernel,
    replicate_substreams,
)
from repro.engine.kernels.eligibility import (
    AUTO_BATCH_BELOW_MIN,
    REASON_CODES,
    EligibilityReason,
    KernelDemotionWarning,
    KernelEligibility,
    algorithm_reason as _algorithm_reason,
    clock_reason as _clock_reason,
    eligibility,
    run_kwargs_reasons as _run_kwargs_reasons,
    register_update,
    registered_update_types,
)
from repro.engine.kernels.scalar import ScalarKernel
from repro.engine.kernels.vectorized import VectorizedBatchKernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.backends import ReplicateSpec
    from repro.engine.results import RunResult

#: Smallest same-configuration group the ``"auto"`` policy vectorizes.
#: Below this width the lockstep loop's per-step numpy call overhead
#: exceeds the scalar loop's per-event cost, so auto falls back; forced
#: ``"vectorized"`` ignores the floor (useful for equivalence testing).
AUTO_MIN_BATCH = 16

_SCALAR = ScalarKernel()
_VECTORIZED = VectorizedBatchKernel()

__all__ = [
    "AUTO_BATCH_BELOW_MIN",
    "AUTO_MIN_BATCH",
    "KERNEL_CHOICES",
    "KERNEL_ENV_VAR",
    "REASON_CODES",
    "EligibilityReason",
    "KernelDemotionWarning",
    "KernelEligibility",
    "ScalarKernel",
    "SimulationKernel",
    "VectorizedBatchKernel",
    "default_kernel",
    "eligibility",
    "execute_specs",
    "new_kernel_stats",
    "normalize_kernel",
    "register_update",
    "registered_update_types",
    "replicate_substreams",
]


def _group_key(spec: "ReplicateSpec") -> tuple:
    """Configuration identity for lockstep grouping.

    Identity-based for the heavy objects (replicates of one
    configuration share them — see ``MonteCarloRunner.build_specs``) and
    content-based for ``run_kwargs`` (each spec carries its own equal
    dict).  Two equal configurations that fail to group merely lose some
    batching; they can never change a result, because every replicate's
    arithmetic is independent of group composition.
    """
    return (
        id(spec.graph),
        id(spec.algorithm_factory),
        id(spec.initial_values),
        id(spec.clock_factory),
        tuple(sorted((key, repr(value)) for key, value in spec.run_kwargs.items())),
    )


def _count_demotions(
    stats: "dict[str, int] | None", codes: "Sequence[str]", count: int = 1
) -> None:
    """Accumulate ``demoted:<code>`` counters (keys created on demand)."""
    if stats is None:
        return
    for code in codes:
        key = f"demoted:{code}"
        stats[key] = stats.get(key, 0) + count


def execute_specs(
    specs: "Sequence[ReplicateSpec]",
    *,
    stats: "dict[str, int] | None" = None,
) -> "list[RunResult]":
    """Execute a batch of resolved specs through the right kernels.

    Returns results in submission order.  ``stats`` (a dict shaped like
    :func:`~repro.engine.kernels.base.new_kernel_stats`) accumulates
    engagement counters in place, so backends can expose which path
    actually ran — the sweep scheduler surfaces them as
    ``kernel_installs`` / ``vectorized_replicates``, plus one
    ``demoted:<code>`` counter per :data:`REASON_CODES` demotion cause
    (so an explicitly requested ``vectorized`` kernel's scalar fallbacks
    are never silent).
    """
    specs = list(specs)
    results: "list[RunResult | None]" = [None] * len(specs)
    scalar_positions: "list[int]" = []
    groups: "dict[tuple, list[int]]" = {}
    # The algorithm verdict requires instantiating the factory; cache it
    # per factory object so a thousand-replicate batch probes each
    # configuration once.  Clock/kwargs verdicts vary per spec (a batch
    # can mix sweep points) and are cheap, so they are checked inline.
    algorithm_verdicts: "dict[int, EligibilityReason | None]" = {}
    for position, spec in enumerate(specs):
        mode = normalize_kernel(getattr(spec, "kernel", "auto"))
        if mode == "scalar":
            scalar_positions.append(position)
            continue
        factory_id = id(spec.algorithm_factory)
        if factory_id in algorithm_verdicts:
            algo_reason = algorithm_verdicts[factory_id]
        else:
            algo_reason = _algorithm_reason(spec.algorithm_factory())
            algorithm_verdicts[factory_id] = algo_reason
        reasons = [] if algo_reason is None else [algo_reason]
        clock = _clock_reason(spec.clock_factory)
        if clock is not None:
            reasons.append(clock)
        reasons.extend(_run_kwargs_reasons(spec.run_kwargs))
        if reasons:
            _count_demotions(stats, [reason.code for reason in reasons])
            scalar_positions.append(position)
            continue
        groups.setdefault((mode, _group_key(spec)), []).append(position)

    vector_groups: "list[list[int]]" = []
    for (mode, _key), positions in groups.items():
        if mode == "auto" and len(positions) < AUTO_MIN_BATCH:
            _count_demotions(stats, (AUTO_BATCH_BELOW_MIN,), len(positions))
            scalar_positions.extend(positions)
        else:
            vector_groups.append(positions)

    for position in sorted(scalar_positions):
        results[position] = _SCALAR.execute_one(specs[position])
    for positions in vector_groups:
        group_results = _VECTORIZED.execute([specs[p] for p in positions])
        for position, result in zip(positions, group_results):
            results[position] = result
    if stats is not None:
        stats["kernel_installs"] += len(vector_groups)
        stats["vectorized_replicates"] += sum(map(len, vector_groups))
        stats["scalar_replicates"] += len(scalar_positions)
    return results  # type: ignore[return-value]
