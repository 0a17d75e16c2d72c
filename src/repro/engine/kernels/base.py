"""The simulation-kernel protocol and kernel-selection plumbing.

A *kernel* is the strategy that turns resolved
:class:`~repro.engine.backends.ReplicateSpec` work orders into
:class:`~repro.engine.results.RunResult` objects.  Two kernels exist:

* :class:`~repro.engine.kernels.scalar.ScalarKernel` — the simulator's
  event loop, one replicate at a time: compiled for declared rules, the
  generic ``on_tick`` loop otherwise.  The generic loop is the bit-exact
  oracle every other loop and kernel is measured against.
* :class:`~repro.engine.kernels.vectorized.VectorizedBatchKernel` —
  advances many replicates of one configuration in lockstep with numpy.

Kernel choice is carried on each spec's ``kernel`` field (``"auto"``,
``"scalar"`` or ``"vectorized"``) and resolved per spec by the
dispatcher (:func:`repro.engine.kernels.execute_specs`): eligible specs
take the vectorized path, everything else falls back to scalar.  The
contract across all of it is **bit-identity** — for the same spec, every
kernel must return byte-identical results (see ``docs/kernels.md``).

This module also owns :func:`replicate_substreams`, the single place the
per-replicate clock / workload / algorithm substream discipline lives,
so no kernel can drift from the seeding scheme the backends document.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.util.rng import derive_child

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.backends import ReplicateSpec
    from repro.engine.results import RunResult

#: Valid values of ``ReplicateSpec.kernel`` and the CLI's ``--kernel``.
KERNEL_CHOICES = ("auto", "scalar", "vectorized")

#: Environment variable consulted when no kernel is given (the CLI's
#: ``--kernel`` flag sets it for a whole experiment run, mirroring
#: ``REPRO_WORKERS``).
KERNEL_ENV_VAR = "REPRO_KERNEL"


def normalize_kernel(kernel: str) -> str:
    """Validate a kernel name, returning it unchanged."""
    if kernel not in KERNEL_CHOICES:
        raise SimulationError(
            f"unknown kernel {kernel!r}; valid kernels: "
            f"{', '.join(KERNEL_CHOICES)}"
        )
    return kernel


def default_kernel() -> str:
    """Kernel name from ``REPRO_KERNEL`` (``"auto"`` when unset)."""
    raw = os.environ.get(KERNEL_ENV_VAR)
    if raw is None:
        return "auto"
    if raw not in KERNEL_CHOICES:
        raise SimulationError(
            f"{KERNEL_ENV_VAR} must be one of {', '.join(KERNEL_CHOICES)}, "
            f"got {raw!r}"
        )
    return raw


def replicate_substreams(
    spec: "ReplicateSpec",
) -> "tuple[np.random.SeedSequence, np.random.SeedSequence, np.random.SeedSequence]":
    """A spec's (clock, workload, algorithm) seed substreams.

    The children are constructed directly (the sequences ``spawn(3)``
    would yield) rather than spawned, because spawning mutates the
    spec's child counter and re-executing the same spec — e.g. comparing
    kernels on one ``build_specs`` output — must stay bit-identical.
    Every kernel derives its randomness through this one function, which
    is what makes kernel choice invisible in the results.
    """
    clock_seq, workload_seq, algorithm_seq = (
        derive_child(spec.seed_sequence, child) for child in range(3)
    )
    return clock_seq, workload_seq, algorithm_seq


def new_kernel_stats() -> "dict[str, int]":
    """A zeroed kernel-engagement counter dict.

    ``kernel_installs`` counts vectorized group launches,
    ``vectorized_replicates`` / ``scalar_replicates`` count how many
    replicates each path actually executed — the telemetry that lets
    reports and benchmarks verify the fast path engaged instead of
    silently falling back to scalar.  The dispatcher additionally
    creates one ``demoted:<code>`` counter on demand per
    :data:`~repro.engine.kernels.eligibility.REASON_CODES` demotion
    cause (not pre-seeded here: a zero-demotion run keeps the dict to
    the three canonical keys, and merge code must treat missing keys
    as zero anyway).
    """
    return {
        "kernel_installs": 0,
        "vectorized_replicates": 0,
        "scalar_replicates": 0,
    }


class SimulationKernel(abc.ABC):
    """How resolved replicate specs become results.

    Kernels receive specs whose :class:`~repro.engine.backends
    .SharedStateRef` placeholders have already been resolved (backends
    do that before dispatching) and must return results **in submission
    order** without injecting any randomness of their own — the same
    contract :class:`~repro.engine.backends.ExecutionBackend` makes,
    pushed one layer down.
    """

    #: Short machine name (telemetry/report label).
    name: str = "abstract"

    @abc.abstractmethod
    def supports(self, spec: "ReplicateSpec") -> bool:
        """True when this kernel can execute ``spec`` bit-exactly."""

    @abc.abstractmethod
    def execute(self, specs: "Sequence[ReplicateSpec]") -> "list[RunResult]":
        """Run every spec and return results in submission order."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
