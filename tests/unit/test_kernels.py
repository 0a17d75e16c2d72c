"""Unit tests for the simulation-kernel layer.

The contract under test is **bit-identity**: for any eligible spec the
vectorized replicate-batch kernel must reproduce the scalar event loop's
:class:`RunResult` to the byte — same values, same durations, same
crossing records, same stop reason — because kernel choice (like backend
choice) is a scheduling decision, never a modeling one.  The suite pins

* the eligibility rules (which algorithm / clock / run-kwarg shapes
  vectorize, and which must fall back to scalar),
* result bit-identity across kernels for every eligible family and every
  stop mode, down to single-replicate forced-vectorized batches,
* the dispatcher's ordering and telemetry counters, and
* sweep-level byte-identity through the whole backend matrix.

Everything here lives at module level so it survives pickling to worker
processes.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.algorithms.convex import ConvexGossip, RandomConvexGossip
from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.poisson import PoissonClockFactory
from repro.clocks.unreliable import (
    FailingPoissonClockFactory,
    LossyPoissonClockFactory,
)
from repro.engine.backends import (
    AlgorithmFactory,
    ProcessPoolBackend,
)
from repro.engine.kernels import (
    AUTO_MIN_BATCH,
    KERNEL_ENV_VAR,
    KernelDemotionWarning,
    ScalarKernel,
    VectorizedBatchKernel,
    default_kernel,
    eligibility,
    execute_specs,
    new_kernel_stats,
    normalize_kernel,
    register_update,
)
from repro.engine.kernels.eligibility import (
    ALGORITHM_UNSUPPORTED,
    AUTO_BATCH_BELOW_MIN,
    CLOCK_UNSUPPORTED,
    RECORDER_ATTACHED,
    RUN_KWARG_UNSUPPORTED,
    clock_reason,
    resolve_update,
    run_kwargs_reasons,
)
from repro.engine.recorder import TraceRecorder
from repro.engine.results import results_identical
from repro.engine.runner import MonteCarloRunner
from repro.engine.sweeps import (
    PointConfig,
    ReplicateBudget,
    SweepAxis,
    SweepRunner,
    SweepSpec,
)
from repro.errors import SimulationError
from repro.graphs.topologies import complete_graph

from oracles import RoundRobinSchedule

THRESHOLDS = (np.e**-2, 0.5)


class GaussianWorkload:
    """Picklable per-replicate workload sampler."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __call__(self, rng: np.random.Generator):
        return rng.normal(size=self.n)


class SubclassedVanilla(VanillaGossip):
    """A subclass must never silently take the parent's fast path."""


class RoundRobinFactory:
    """A non-Poisson clock factory (disqualifies vectorization)."""

    def __init__(self, n_edges: int) -> None:
        self.n_edges = n_edges

    def __call__(self, rng: np.random.Generator) -> RoundRobinSchedule:
        return RoundRobinSchedule(self.n_edges)


def runner_for(graph, factory, workload, *, kernel: str, seed: int = 42):
    return MonteCarloRunner(graph, factory, workload, seed=seed, kernel=kernel)


def identical_lists(a, b) -> bool:
    return len(a) == len(b) and all(results_identical(x, y) for x, y in zip(a, b))


ELIGIBLE_FACTORIES = [
    pytest.param(AlgorithmFactory(VanillaGossip), id="vanilla"),
    pytest.param(AlgorithmFactory(ConvexGossip, alpha=0.3), id="convex"),
    pytest.param(
        AlgorithmFactory(RandomConvexGossip, low=0.2, high=0.8),
        id="random-convex",
    ),
]


def dumbbell_nonconvex_factory(pair, **kwargs):
    defaults = dict(epoch_length=4)
    defaults.update(kwargs)
    return AlgorithmFactory(NonConvexSparseCutGossip, pair.partition, **defaults)


class TestEligibility:
    def test_builtin_family_resolves(self, small_dumbbell):
        assert resolve_update(VanillaGossip()) is not None
        assert resolve_update(ConvexGossip(alpha=0.25)) is not None
        assert resolve_update(RandomConvexGossip(low=0.1, high=0.9)) is not None
        assert (
            resolve_update(
                NonConvexSparseCutGossip(
                    small_dumbbell.partition, epoch_length=4
                )
            )
            is not None
        )

    def test_subclass_never_fast_paths(self):
        """Exact-type matching: an on_tick override in a subclass would
        silently diverge if the parent's update rule were applied."""
        assert resolve_update(SubclassedVanilla()) is None

    def test_clock_factory_rules(self):
        assert clock_reason(None) is None
        assert clock_reason(PoissonClockFactory(12)) is None
        assert clock_reason(LossyPoissonClockFactory(12, 0.3)) is None
        assert clock_reason(FailingPoissonClockFactory(12, 2.0)) is None
        reason = clock_reason(RoundRobinFactory(12))
        assert reason is not None and reason.code == CLOCK_UNSUPPORTED

    def test_run_kwargs_rules(self):
        assert not run_kwargs_reasons({"max_events": 100, "target_ratio": 0.1})
        assert not run_kwargs_reasons({"max_time": 5.0, "recorder": None})
        codes = [r.code for r in run_kwargs_reasons({"max_events": 1, "unknown": 1})]
        assert codes == [RUN_KWARG_UNSUPPORTED]
        codes = [
            r.code
            for r in run_kwargs_reasons(
                {"max_events": 100, "recorder": TraceRecorder(sample_every=10)}
            )
        ]
        assert codes == [RECORDER_ATTACHED]

    def test_eligibility_verdict_composes_reasons(self):
        verdict = eligibility(
            algorithm_factory=SubclassedVanilla,
            clock_factory=RoundRobinFactory(12),
            run_kwargs={"max_events": 100, "unknown": 1},
        )
        assert not verdict
        assert verdict.codes == (
            ALGORITHM_UNSUPPORTED,
            CLOCK_UNSUPPORTED,
            RUN_KWARG_UNSUPPORTED,
        )
        assert ALGORITHM_UNSUPPORTED in verdict.describe()
        good = eligibility(
            algorithm_factory=VanillaGossip,
            clock_factory=None,
            run_kwargs={"max_events": 100},
        )
        assert good and good.reasons == () and good.describe() == "eligible"

    def test_eligibility_accepts_a_spec(self, k6):
        runner = runner_for(k6, VanillaGossip, GaussianWorkload(6), kernel="auto")
        (spec,) = runner.build_specs(1, max_events=100)
        assert eligibility(spec)

    def test_register_update_extension_point(self):
        class ThirdPartyGossip(VanillaGossip):
            pass

        assert resolve_update(ThirdPartyGossip()) is None
        sentinel = object()
        try:

            @register_update(ThirdPartyGossip)
            def _build(algorithm):
                return sentinel

            assert resolve_update(ThirdPartyGossip()) is sentinel
            assert eligibility(
                algorithm_factory=ThirdPartyGossip,
                clock_factory=None,
                run_kwargs={},
            )
        finally:
            from repro.engine.kernels.eligibility import _UPDATE_BUILDERS

            _UPDATE_BUILDERS.pop(ThirdPartyGossip, None)
        assert resolve_update(ThirdPartyGossip()) is None

    def test_register_update_rejects_non_types(self):
        with pytest.raises(TypeError, match="algorithm type"):
            register_update(VanillaGossip())

    def test_supports_composes_the_rules(self, k6):
        kernel = VectorizedBatchKernel()
        runner = runner_for(k6, VanillaGossip, GaussianWorkload(6), kernel="vectorized")
        (spec,) = runner.build_specs(1, max_events=100)
        assert kernel.supports(spec)
        (spec,) = MonteCarloRunner(
            k6,
            SubclassedVanilla,
            GaussianWorkload(6),
            seed=42,
            kernel="vectorized",
        ).build_specs(1, max_events=100)
        assert not kernel.supports(spec)
        assert ScalarKernel().supports(spec)


class TestKernelSelection:
    def test_normalize_rejects_unknown(self):
        with pytest.raises(SimulationError, match="unknown kernel"):
            normalize_kernel("turbo")

    def test_default_kernel_reads_environment(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        assert default_kernel() == "auto"
        monkeypatch.setenv(KERNEL_ENV_VAR, "vectorized")
        assert default_kernel() == "vectorized"
        monkeypatch.setenv(KERNEL_ENV_VAR, "turbo")
        with pytest.raises(SimulationError, match=KERNEL_ENV_VAR):
            default_kernel()

    def test_runner_inherits_environment_default(self, k6, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "scalar")
        runner = MonteCarloRunner(k6, VanillaGossip, np.arange(6.0))
        assert runner.kernel == "scalar"
        (spec,) = runner.build_specs(1, max_events=10)
        assert spec.kernel == "scalar"

    def test_runner_rejects_unknown_kernel(self, k6):
        with pytest.raises(SimulationError, match="unknown kernel"):
            MonteCarloRunner(k6, VanillaGossip, np.arange(6.0), kernel="turbo")


class TestBitIdentity:
    """Scalar vs vectorized, field-for-field, for every eligible family."""

    @pytest.mark.parametrize("factory", ELIGIBLE_FACTORIES)
    def test_target_ratio_stop(self, factory, small_dumbbell):
        graph = small_dumbbell.graph
        workload = GaussianWorkload(graph.n_vertices)
        kwargs = dict(target_ratio=1e-4, max_events=200_000, thresholds=THRESHOLDS)
        scalar = runner_for(graph, factory, workload, kernel="scalar")
        vector = runner_for(graph, factory, workload, kernel="vectorized")
        assert identical_lists(scalar.run(20, **kwargs), vector.run(20, **kwargs))

    @pytest.mark.parametrize("factory", ELIGIBLE_FACTORIES)
    def test_max_events_stop(self, factory, k6):
        workload = GaussianWorkload(6)
        scalar = runner_for(k6, factory, workload, kernel="scalar")
        vector = runner_for(k6, factory, workload, kernel="vectorized")
        assert identical_lists(
            scalar.run(20, max_events=5_000),
            vector.run(20, max_events=5_000),
        )

    def test_max_time_stop(self, k6):
        workload = GaussianWorkload(6)
        scalar = runner_for(k6, VanillaGossip, workload, kernel="scalar")
        vector = runner_for(k6, VanillaGossip, workload, kernel="vectorized")
        assert identical_lists(
            scalar.run(20, max_time=2.5), vector.run(20, max_time=2.5)
        )

    def test_fixed_vector_workload(self, k6):
        x0 = np.linspace(-1.0, 1.0, 6)
        scalar = runner_for(k6, VanillaGossip, x0, kernel="scalar")
        vector = runner_for(k6, VanillaGossip, x0, kernel="vectorized")
        assert identical_lists(
            scalar.run(20, max_events=3_000),
            vector.run(20, max_events=3_000),
        )

    def test_duplicate_and_unsorted_thresholds(self, k6):
        workload = GaussianWorkload(6)
        kwargs = dict(max_events=4_000, thresholds=(0.5, 0.5, np.e**-2, 0.9))
        scalar = runner_for(k6, VanillaGossip, workload, kernel="scalar")
        vector = runner_for(k6, VanillaGossip, workload, kernel="vectorized")
        assert identical_lists(scalar.run(20, **kwargs), vector.run(20, **kwargs))

    def test_explicit_poisson_clock_factory(self, k6):
        workload = GaussianWorkload(6)
        kwargs = dict(max_events=3_000)
        results = []
        for kernel in ("scalar", "vectorized"):
            runner = MonteCarloRunner(
                k6,
                VanillaGossip,
                workload,
                seed=42,
                clock_factory=PoissonClockFactory(k6.n_edges),
                kernel=kernel,
            )
            results.append(runner.run(20, **kwargs))
        assert identical_lists(*results)

    def test_single_replicate_forced_vectorized(self, k6):
        """Forced 'vectorized' takes the lockstep path at any width,
        including a one-spec batch."""
        workload = GaussianWorkload(6)
        scalar = runner_for(k6, VanillaGossip, workload, kernel="scalar")
        vector = runner_for(k6, VanillaGossip, workload, kernel="vectorized")
        stats = vector.backend.kernel_stats
        before = dict(stats)
        assert identical_lists(
            scalar.run(1, max_events=2_000), vector.run(1, max_events=2_000)
        )
        assert stats["vectorized_replicates"] - before["vectorized_replicates"] == 1

    def test_zero_variance_short_circuit(self, k6):
        x0 = np.full(6, 3.0)
        scalar = runner_for(k6, VanillaGossip, x0, kernel="scalar")
        vector = runner_for(k6, VanillaGossip, x0, kernel="vectorized")
        a = scalar.run(4, target_ratio=0.1)
        b = vector.run(4, target_ratio=0.1)
        assert identical_lists(a, b)
        assert all(r.stopped_by == "target_ratio" for r in b)
        assert all(r.n_events == 0 for r in b)

    def test_vectorized_rejects_bad_run_kwargs(self, k6):
        """The lockstep loop validates with the scalar loop's messages."""
        runner = runner_for(k6, VanillaGossip, GaussianWorkload(6), kernel="vectorized")
        with pytest.raises(SimulationError, match="at least one"):
            runner.run(AUTO_MIN_BATCH)
        with pytest.raises(SimulationError, match="max_time must be positive"):
            runner.run(AUTO_MIN_BATCH, max_time=-1.0)

    @pytest.mark.parametrize(
        "run_kwargs, message",
        [
            ({"max_events": 10, "divergence_ratio": 0.0}, "divergence_ratio"),
            ({"max_events": 10, "divergence_ratio": -2.0}, "divergence_ratio"),
            ({"max_events": 10, "divergence_ratio": math.nan}, "divergence_ratio"),
            ({"max_time": math.nan}, "max_time"),
            ({"max_events": 10, "max_time": math.nan}, "max_time"),
            ({"target_ratio": math.nan}, "target_ratio"),
            ({"max_events": 10, "thresholds": (0.5, math.nan)}, "thresholds"),
            ({"max_events": math.nan}, "max_events"),
        ],
    )
    def test_both_kernels_reject_a_bad_budget_alike(self, k6, run_kwargs, message):
        """One validator serves both kernels: non-positive and NaN bounds
        are rejected up front with the same error, instead of being
        ignored or stopping every run as diverged after one event."""
        errors = []
        for kernel in ("scalar", "vectorized"):
            runner = runner_for(k6, VanillaGossip, GaussianWorkload(6), kernel=kernel)
            with pytest.raises(
                SimulationError, match=f"{message} must be positive"
            ) as info:
                runner.run(AUTO_MIN_BATCH, **run_kwargs)
            errors.append(str(info.value))
        assert errors[0] == errors[1]


class TestNonConvexLockstep:
    """Algorithm A through the generalized lockstep loop, field-for-field
    identical to the scalar oracle across every semantic variant."""

    def cmp(self, graph, factory, clock=None, n=10, **kwargs):
        workload = GaussianWorkload(graph.n_vertices)
        scalar = MonteCarloRunner(
            graph, factory, workload, seed=42,
            clock_factory=clock, kernel="scalar",
        ).run(n, **kwargs)
        vector_runner = MonteCarloRunner(
            graph, factory, workload, seed=42,
            clock_factory=clock, kernel="vectorized",
        )
        before = dict(vector_runner.backend.kernel_stats)
        vector = vector_runner.run(n, **kwargs)
        after = vector_runner.backend.kernel_stats
        engaged = after["vectorized_replicates"] - before.get(
            "vectorized_replicates", 0
        )
        assert engaged == n, "the lockstep path must actually run"
        assert identical_lists(scalar, vector)
        return vector

    @pytest.mark.parametrize("gain", ["exact", "paper", 2.5])
    def test_gain_conventions(self, gain, small_dumbbell):
        self.cmp(
            small_dumbbell.graph,
            dumbbell_nonconvex_factory(small_dumbbell, gain=gain),
            max_events=12_000,
            target_ratio=1e-4,
            thresholds=THRESHOLDS,
        )

    @pytest.mark.parametrize("epoch_length", [1, 2, 7])
    def test_epoch_lengths(self, epoch_length, small_dumbbell):
        self.cmp(
            small_dumbbell.graph,
            dumbbell_nonconvex_factory(
                small_dumbbell, epoch_length=epoch_length
            ),
            max_events=12_000,
            target_ratio=1e-4,
        )

    def test_oracle_means(self, small_dumbbell):
        self.cmp(
            small_dumbbell.graph,
            dumbbell_nonconvex_factory(small_dumbbell, oracle_means=True),
            max_events=12_000,
            target_ratio=1e-4,
            thresholds=THRESHOLDS,
        )

    def test_balanced_partition_oscillation(self, small_expander_pair):
        """``n1 = n2`` with the paper gain: the imbalance oscillates
        forever, so replicates run into the divergence/event guards —
        the stop machinery must agree bit-for-bit too."""
        results = self.cmp(
            small_expander_pair.graph,
            dumbbell_nonconvex_factory(
                small_expander_pair, epoch_length=2, gain="paper"
            ),
            max_events=20_000,
            target_ratio=1e-6,
        )
        assert all(r.stopped_by in ("diverged", "max_events") for r in results)

    def test_max_time_and_max_events_stops(self, small_dumbbell):
        factory = dumbbell_nonconvex_factory(small_dumbbell)
        self.cmp(
            small_dumbbell.graph, factory, max_time=2.0, max_events=500_000
        )
        self.cmp(small_dumbbell.graph, factory, max_events=3_000)

    def test_lossy_clock_mask(self, small_dumbbell):
        graph = small_dumbbell.graph
        self.cmp(
            graph,
            dumbbell_nonconvex_factory(small_dumbbell),
            clock=LossyPoissonClockFactory(graph.n_edges, 0.3),
            max_events=10_000,
            target_ratio=1e-4,
            thresholds=THRESHOLDS,
        )

    def test_failing_clock_mask_exhausts(self, small_dumbbell):
        """Edges dying early enough starve the clock: the lockstep loop
        must report the scalar loop's ``clock_exhausted`` exit."""
        graph = small_dumbbell.graph
        results = self.cmp(
            graph,
            dumbbell_nonconvex_factory(small_dumbbell),
            clock=FailingPoissonClockFactory(graph.n_edges, 3.0),
            max_events=50_000,
            target_ratio=1e-6,
        )
        assert any(r.stopped_by == "clock_exhausted" for r in results)

    def test_lossy_convex_families(self, k6):
        """The wrapped clocks also lift the dense-family algorithms into
        the generalized loop — same bit-identity contract."""
        lossy = LossyPoissonClockFactory(k6.n_edges, 0.25)
        self.cmp(
            k6,
            AlgorithmFactory(RandomConvexGossip, low=0.2, high=0.8),
            clock=lossy,
            max_events=6_000,
            target_ratio=1e-4,
        )

    def test_single_replicate_forced_vectorized(self, small_dumbbell):
        self.cmp(
            small_dumbbell.graph,
            dumbbell_nonconvex_factory(small_dumbbell),
            n=1,
            max_events=4_000,
        )

    def test_swap_counts_match_scalar_semantics(self, small_dumbbell):
        """The designated edge's epoch bookkeeping (every L-th tick)
        shows up in n_updates: silenced cut ticks never count."""
        results = self.cmp(
            small_dumbbell.graph,
            dumbbell_nonconvex_factory(small_dumbbell, epoch_length=4),
            max_events=3_000,
        )
        assert all(r.n_updates < r.n_events for r in results)


class TestFallback:
    """Ineligible specs run scalar — and still produce correct results."""

    def kernel_delta(self, runner, n, **kwargs):
        stats = runner.backend.kernel_stats
        before = dict(stats)
        results = runner.run(n, **kwargs)
        return results, {
            k: stats.get(k, 0) - before.get(k, 0)
            for k in set(stats) | set(before)
        }

    def test_recorder_falls_back(self, k6):
        runner = runner_for(k6, VanillaGossip, GaussianWorkload(6), kernel="vectorized")
        _, delta = self.kernel_delta(
            runner,
            4,
            max_events=500,
            recorder=TraceRecorder(sample_every=100),
        )
        assert delta["scalar_replicates"] == 4
        assert delta["vectorized_replicates"] == 0
        assert delta[f"demoted:{RECORDER_ATTACHED}"] == 4

    def test_subclassed_algorithm_falls_back(self, k6):
        runner = MonteCarloRunner(
            k6,
            SubclassedVanilla,
            GaussianWorkload(6),
            seed=42,
            kernel="vectorized",
        )
        results, delta = self.kernel_delta(runner, 4, max_events=500)
        assert delta["scalar_replicates"] == 4
        assert delta["vectorized_replicates"] == 0
        assert delta[f"demoted:{ALGORITHM_UNSUPPORTED}"] == 4
        reference = MonteCarloRunner(
            k6, VanillaGossip, GaussianWorkload(6), seed=42, kernel="scalar"
        ).run(4, max_events=500)
        # Same update rule, same streams: the subclass result is the
        # parent's — via the scalar loop, never the lockstep one.
        assert identical_lists(results, reference)

    def test_scripted_clock_falls_back(self, k6):
        runner = MonteCarloRunner(
            k6,
            VanillaGossip,
            GaussianWorkload(6),
            seed=42,
            clock_factory=RoundRobinFactory(k6.n_edges),
            kernel="vectorized",
        )
        _, delta = self.kernel_delta(runner, 4, max_events=100)
        assert delta["scalar_replicates"] == 4
        assert delta["vectorized_replicates"] == 0
        assert delta[f"demoted:{CLOCK_UNSUPPORTED}"] == 4

    def test_auto_demotes_small_batches(self, k6):
        runner = runner_for(k6, VanillaGossip, GaussianWorkload(6), kernel="auto")
        _, delta = self.kernel_delta(runner, AUTO_MIN_BATCH - 1, max_events=500)
        assert delta["scalar_replicates"] == AUTO_MIN_BATCH - 1
        assert delta["vectorized_replicates"] == 0
        assert delta[f"demoted:{AUTO_BATCH_BELOW_MIN}"] == AUTO_MIN_BATCH - 1
        _, delta = self.kernel_delta(runner, AUTO_MIN_BATCH, max_events=500)
        assert delta["vectorized_replicates"] == AUTO_MIN_BATCH
        assert delta["kernel_installs"] == 1

    def test_scalar_mode_never_vectorizes(self, k6):
        runner = runner_for(k6, VanillaGossip, GaussianWorkload(6), kernel="scalar")
        _, delta = self.kernel_delta(runner, 32, max_events=500)
        assert delta["vectorized_replicates"] == 0
        assert delta["scalar_replicates"] == 32


class TestDispatcher:
    def test_interleaved_configurations_keep_order(self, k6, c8):
        """Two configurations interleaved in one batch: the dispatcher
        groups internally but must return submission order."""
        specs_a = runner_for(
            k6, VanillaGossip, GaussianWorkload(6), kernel="vectorized"
        ).build_specs(6, max_events=400)
        specs_b = runner_for(
            c8, AlgorithmFactory(ConvexGossip, alpha=0.4),
            GaussianWorkload(8),
            kernel="vectorized",
        ).build_specs(6, max_events=400)
        interleaved = [spec for pair in zip(specs_a, specs_b) for spec in pair]
        stats = new_kernel_stats()
        mixed = execute_specs(interleaved, stats=stats)
        reference = execute_specs(specs_a) + execute_specs(specs_b)
        assert identical_lists(mixed[0::2], reference[:6])
        assert identical_lists(mixed[1::2], reference[6:])
        assert stats["kernel_installs"] == 2
        assert stats["vectorized_replicates"] == 12

    def test_empty_batch(self):
        assert execute_specs([]) == []

    @pytest.mark.slow
    def test_process_pool_chunking_identity_and_stats(self, k6):
        """Chunked dispatch across workers preserves results and merges
        kernel telemetry from every worker."""
        workload = GaussianWorkload(6)
        factory = AlgorithmFactory(VanillaGossip)
        serial = runner_for(k6, factory, workload, kernel="scalar").run(
            40, max_events=2_000
        )
        pool = ProcessPoolBackend(2)
        runner = MonteCarloRunner(
            k6, factory, workload, seed=42, backend=pool, kernel="vectorized"
        )
        try:
            results = runner.run(40, max_events=2_000)
            assert identical_lists(results, serial)
            assert pool.kernel_stats["vectorized_replicates"] == 40
            assert pool.kernel_stats["kernel_installs"] >= 2  # >= one/worker
        finally:
            pool.shutdown()


# ----------------------------------------------------------------------
# sweep-level byte-identity through the backend matrix
# ----------------------------------------------------------------------


def build_kernel_point(*, n: int) -> PointConfig:
    return PointConfig(
        graph=complete_graph(int(n)),
        algorithm_factory=VanillaGossip,
        initial_values=GaussianWorkload(int(n)),
        max_time=50.0,
        max_events=100_000,
    )


def kernel_sweep_spec() -> SweepSpec:
    return SweepSpec(
        name="kernel-matrix",
        axes=(SweepAxis("n", (5, 6)),),
        builder=build_kernel_point,
    )


class TestSweepIdentity:
    BUDGET = ReplicateBudget.fixed(6)

    def test_sweep_identical_across_kernels_and_backends(self, backend):
        """The acceptance matrix: a vectorized sweep through any backend
        must serialize byte-identically to the serial scalar sweep."""
        reference = SweepRunner(
            kernel_sweep_spec(), seed=7, budget=self.BUDGET, kernel="scalar"
        ).run()
        swept = SweepRunner(
            kernel_sweep_spec(),
            seed=7,
            budget=self.BUDGET,
            backend=backend,
            kernel="vectorized",
        ).run()
        assert json.dumps(swept.to_dict(), sort_keys=True) == json.dumps(
            reference.to_dict(), sort_keys=True
        )

    def test_sweep_stats_report_kernel_engagement(self):
        runner = SweepRunner(
            kernel_sweep_spec(), seed=7, budget=self.BUDGET, kernel="vectorized"
        )
        runner.run()
        assert runner.stats["vectorized_replicates"] == 12
        assert runner.stats["scalar_replicates"] == 0
        assert runner.stats["kernel_installs"] >= 2
        scalar = SweepRunner(
            kernel_sweep_spec(), seed=7, budget=self.BUDGET, kernel="scalar"
        )
        scalar.run()
        assert scalar.stats["vectorized_replicates"] == 0
        assert scalar.stats["scalar_replicates"] == 12


def build_ineligible_point(*, n: int) -> PointConfig:
    return PointConfig(
        graph=complete_graph(int(n)),
        algorithm_factory=SubclassedVanilla,
        initial_values=GaussianWorkload(int(n)),
        max_time=20.0,
        max_events=20_000,
    )


def ineligible_sweep_spec() -> SweepSpec:
    return SweepSpec(
        name="ineligible-matrix",
        axes=(SweepAxis("n", (5, 6)),),
        builder=build_ineligible_point,
    )


class TestDemotionWarnings:
    BUDGET = ReplicateBudget.fixed(3)

    def test_explicit_vectorized_warns_once_with_codes(self):
        runner = SweepRunner(
            ineligible_sweep_spec(),
            seed=7,
            budget=self.BUDGET,
            kernel="vectorized",
        )
        with pytest.warns(KernelDemotionWarning) as captured:
            runner.run()
        demotions = [
            w for w in captured if issubclass(w.category, KernelDemotionWarning)
        ]
        assert len(demotions) == 1
        message = str(demotions[0].message)
        assert ALGORITHM_UNSUPPORTED in message
        assert "point 0" in message and "point 1" in message
        assert runner.stats[f"demoted:{ALGORITHM_UNSUPPORTED}"] == 6
        assert runner.stats["scalar_replicates"] == 6
        assert runner.stats["vectorized_replicates"] == 0

    @pytest.mark.parametrize("kernel", ["auto", "scalar", None])
    def test_non_explicit_modes_demote_silently(self, kernel, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", KernelDemotionWarning)
            SweepRunner(
                ineligible_sweep_spec(),
                seed=7,
                budget=self.BUDGET,
                kernel=kernel,
            ).run()

    def test_explicit_vectorized_all_eligible_is_quiet(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", KernelDemotionWarning)
            SweepRunner(
                kernel_sweep_spec(),
                seed=7,
                budget=self.BUDGET,
                kernel="vectorized",
            ).run()


class TestKernelExplainCli:
    def test_explain_renders_verdicts(self, capsys):
        from repro.experiments.cli import main

        assert main(["kernel", "explain", "E3", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "eligibility" in out
        assert "algorithm_a" in out
        assert "vectorized" in out

    def test_explain_unknown_sweep_fails_cleanly(self, capsys):
        from repro.experiments.cli import main

        assert main(["kernel", "explain", "E99"]) == 2
        assert capsys.readouterr().err.strip()

    def test_explain_respects_axis_override(self, capsys):
        from repro.experiments.cli import main

        code = main(
            ["kernel", "explain", "E2", "--scale", "smoke", "--axis", "n=24"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 configuration(s)" in out


def test_e3_smoke_sweep_identical_across_kernels():
    """The CI acceptance check in-process: the paper's E3 dumbbell smoke
    sweep serializes byte-identically under every kernel mode."""
    from repro.experiments.specs_sweeps import e3_sweep

    dumps = {}
    for kernel in ("scalar", "vectorized"):
        result = SweepRunner(e3_sweep(scale="smoke"), seed=123, kernel=kernel).run()
        dumps[kernel] = json.dumps(result.to_dict(), sort_keys=True)
    assert dumps["scalar"] == dumps["vectorized"]
