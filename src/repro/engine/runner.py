"""Monte-Carlo replication over independent clock/workload randomness.

The paper's quantities are probabilistic (``T_av`` is a quantile over the
randomness of the Poisson clocks), so every measurement replays the same
configuration under independent seeds.  :class:`MonteCarloRunner` owns the
seed bookkeeping — replicate ``i`` gets the ``i``-th child of the root
:class:`~numpy.random.SeedSequence`, split into independent clock /
workload / algorithm substreams — and delegates execution to a pluggable
:class:`~repro.engine.backends.ExecutionBackend` (serial by default; pass
``n_workers > 1`` or ``backend="process"`` to fan replicates out over a
process pool with bit-identical results).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.engine.backends import (
    ExecutionBackend,
    ReplicateSpec,
    SharedStateRef,
    execute_with_retry,
    resolve_backend,
)
from repro.engine.kernels import default_kernel, normalize_kernel
from repro.engine.results import RunResult
from repro.errors import SimulationError
from repro.graphs.graph import Graph
from repro.util.rng import derive_child

#: Spawn-key namespace for deriving replicates from a caller-supplied
#: SeedSequence.  A caller's own spawns from the same root get keys
#: (0,), (1,), ... — deriving replicates under this far-away key keeps
#: runner streams disjoint from any stream the caller already drew.
_REPLICATE_SPAWN_NAMESPACE = 0x52455052  # "REPR"


@dataclass
class ReplicateSummary:
    """Aggregate view over a list of replicate results."""

    n_replicates: int
    mean_duration: float
    mean_events: float
    mean_variance_ratio: float
    max_sum_drift: float

    @classmethod
    def from_results(cls, results: "Sequence[RunResult]") -> "ReplicateSummary":
        if not results:
            raise SimulationError("cannot summarize zero replicates")
        return cls(
            n_replicates=len(results),
            mean_duration=float(np.mean([r.duration for r in results])),
            mean_events=float(np.mean([r.n_events for r in results])),
            mean_variance_ratio=float(np.mean([r.variance_ratio for r in results])),
            max_sum_drift=float(max(r.sum_drift for r in results)),
        )

    def to_dict(self) -> dict:
        """Plain-dict view for serialization."""
        return {
            "n_replicates": self.n_replicates,
            "mean_duration": self.mean_duration,
            "mean_events": self.mean_events,
            "mean_variance_ratio": self.mean_variance_ratio,
            "max_sum_drift": self.max_sum_drift,
        }


class MonteCarloRunner:
    """Run one configuration under many independent random streams.

    Parameters
    ----------
    graph:
        The graph to simulate on.
    algorithm_factory:
        Zero-argument callable producing a fresh (or resettable) algorithm
        per replicate.  Pass ``lambda: algo`` to reuse one instance —
        algorithms are required to fully reset in ``setup``.  For process
        execution the factory must be picklable (use a class,
        ``functools.partial`` or
        :class:`~repro.engine.backends.AlgorithmFactory`).
    initial_values:
        Either a fixed vector used by every replicate, or a callable
        ``rng -> vector`` sampling a workload per replicate.
    seed:
        Root seed; replicate ``i`` derives stream ``i`` deterministically,
        independent of the backend and worker count.
    clock_factory:
        Optional callable ``rng -> clock process`` building each
        replicate's clock (boosted rates, failure injection...).  Default
        is the standard rate-1 Poisson model.
    backend:
        Execution backend: an
        :class:`~repro.engine.backends.ExecutionBackend`, a backend name
        (``"serial"`` or ``"process"``), or ``None`` to choose from
        ``n_workers`` (falling back to the ``REPRO_WORKERS`` environment
        variable, then serial).
    n_workers:
        Worker count used when ``backend`` is ``None`` or a name;
        1 means serial.
    kernel:
        Simulation-kernel request stamped on every spec (``"auto"``,
        ``"scalar"`` or ``"vectorized"`` — see
        :mod:`repro.engine.kernels`); ``None`` falls back to the
        ``REPRO_KERNEL`` environment variable, then ``"auto"``.  Purely
        a scheduling choice: results are bit-identical across kernels.
    """

    def __init__(
        self,
        graph: Graph,
        algorithm_factory: "Callable[[], GossipAlgorithm]",
        initial_values: (
            "Sequence[float] | Callable[[np.random.Generator], Sequence[float]]"
        ),
        *,
        seed: "int | np.random.SeedSequence | None" = None,
        clock_factory: "Callable[[np.random.Generator], object] | None" = None,
        backend: "ExecutionBackend | str | None" = None,
        n_workers: "int | None" = None,
        kernel: "str | None" = None,
    ) -> None:
        self.graph = graph
        self.algorithm_factory = algorithm_factory
        self.initial_values = initial_values
        self.seed = seed
        self.clock_factory = clock_factory
        self.backend = resolve_backend(backend, n_workers=n_workers)
        self.kernel = (
            default_kernel() if kernel is None else normalize_kernel(kernel)
        )

    def shared_state(self) -> "dict[str, object]":
        """The configuration's immutable payload for shared-state shipping.

        Exactly the heavy fields every replicate of this configuration
        repeats — what ``build_specs(..., shared_key=...)`` replaces with
        :class:`~repro.engine.backends.SharedStateRef` placeholders and
        ``ExecutionBackend.execute_shared`` installs once per worker.
        """
        return {
            "graph": self.graph,
            "algorithm_factory": self.algorithm_factory,
            "initial_values": self.initial_values,
            "clock_factory": self.clock_factory,
        }

    def build_specs(
        self,
        n_replicates: int,
        *,
        start: int = 0,
        shared_key: "str | None" = None,
        **run_kwargs: object,
    ) -> "list[ReplicateSpec]":
        """Derive the per-replicate work orders (seed bookkeeping lives here).

        Replicate ``i``'s randomness comes from the ``i``-th child of the
        root seed sequence, so the stream assignment never depends on the
        backend, the worker count, or how many replicates run.  ``start``
        shifts the replicate window: ``build_specs(k, start=s)`` builds
        replicates ``s .. s+k-1`` with exactly the streams they would have
        had in one big ``build_specs(s+k)`` call — the sweep scheduler
        uses this to grow a configuration's replicate set in rounds
        without perturbing any existing stream.

        ``shared_key`` builds *slim* specs: the heavy per-configuration
        fields become :class:`~repro.engine.backends.SharedStateRef`
        placeholders into a mapping entry ``shared_key`` whose payload is
        :meth:`shared_state` — for backends that ship the configuration
        once per worker instead of once per replicate.  Seed derivation
        is identical either way.
        """
        if n_replicates < 1:
            raise SimulationError(f"n_replicates must be positive, got {n_replicates}")
        if start < 0:
            raise SimulationError(f"start must be non-negative, got {start}")
        if isinstance(self.seed, np.random.SeedSequence):
            # Derive (not spawn) so the caller's child counter is never
            # advanced — a second run() must reuse identical streams.
            root = derive_child(self.seed, _REPLICATE_SPAWN_NAMESPACE)
        else:
            # Same namespace for int/None seeds: without it, replicate
            # streams would collide with a caller's own
            # spawn_generators(seed, k) children from the same seed.
            root = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(_REPLICATE_SPAWN_NAMESPACE,)
            )
        if shared_key is None:
            graph = self.graph
            algorithm_factory = self.algorithm_factory
            initial_values = self.initial_values
            clock_factory = self.clock_factory
        else:
            graph = SharedStateRef(shared_key, "graph")
            algorithm_factory = SharedStateRef(shared_key, "algorithm_factory")
            initial_values = SharedStateRef(shared_key, "initial_values")
            # A None clock keeps meaning "default Poisson model" without
            # a pointless round-trip through the registry.
            clock_factory = (
                None
                if self.clock_factory is None
                else SharedStateRef(shared_key, "clock_factory")
            )
        return [
            ReplicateSpec(
                index=index,
                graph=graph,
                algorithm_factory=algorithm_factory,
                initial_values=initial_values,
                # derive_child(root, i) is exactly the child spawn() would
                # yield at i, so windows [0, n) and [s, s+k) tile the same
                # stream assignment without mutating root's child counter.
                seed_sequence=derive_child(root, index),
                clock_factory=clock_factory,
                run_kwargs=dict(run_kwargs),
                kernel=self.kernel,
            )
            for index in range(start, start + n_replicates)
        ]

    def run(self, n_replicates: int, **run_kwargs: object) -> list[RunResult]:
        """Execute ``n_replicates`` independent runs; kwargs go to ``run``."""
        specs = self.build_specs(n_replicates, **run_kwargs)
        results = execute_with_retry(self.backend, specs)
        if len(results) != len(specs):
            raise SimulationError(
                f"backend {self.backend.name!r} returned {len(results)} "
                f"results for {len(specs)} replicates"
            )
        return results

    def summary(self, n_replicates: int, **run_kwargs: object) -> ReplicateSummary:
        """Run and aggregate in one call."""
        return ReplicateSummary.from_results(self.run(n_replicates, **run_kwargs))
