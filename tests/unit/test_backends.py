"""Unit tests for the Monte-Carlo execution backends.

The load-bearing property is the reproducibility guarantee: for the same
root seed, every backend must produce **bit-identical** results, because
all randomness is derived from per-replicate seed sequences inside
``execute_replicate`` and never from execution order.  Factories defined
here live at module level so they survive pickling to worker processes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.algorithms.convex import ConvexGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.poisson import PoissonClockFactory, PoissonEdgeClocks
from repro.clocks.unreliable import (
    FailingPoissonClockFactory,
    LossyPoissonClockFactory,
)
from repro.engine.backends import (
    WORKERS_ENV_VAR,
    AlgorithmFactory,
    ExecutionBackend,
    ProcessPoolBackend,
    ReplicateSpec,
    SerialBackend,
    default_n_workers,
    execute_replicate,
    resolve_backend,
    shutdown_shared_backends,
)
from repro.engine.runner import MonteCarloRunner, ReplicateSummary
from repro.errors import SimulationError
from repro.graphs.composites import dumbbell_graph
from repro.graphs.topologies import complete_graph


@pytest.fixture(autouse=True)
def _release_shared_pools():
    """Backends resolved by name/count register module-global warm pools;
    release them so no test leaks worker processes or registry state
    into later tests (the suite must pass in any collection order)."""
    yield
    shutdown_shared_backends()


def zero_mean_gaussian_workload(rng: np.random.Generator) -> np.ndarray:
    """Module-level workload sampler (picklable by reference)."""
    values = rng.normal(size=8)
    return values - values.mean()


def assert_results_identical(first, second):
    """Field-by-field exact equality of two RunResult lists."""
    from repro.engine.results import results_identical

    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert results_identical(a, b)


class TestDeterminismAcrossBackends:
    """The cross-backend matrix: each test runs once per backend flavor
    (serial / process pool) through the shared ``backend`` fixture and
    must reproduce the serial reference bit-for-bit."""

    def test_backend_matches_serial_exactly(self, backend):
        """The headline guarantee: same seed => bit-identical results."""
        graph = complete_graph(8)
        x0 = [float(i) for i in range(8)]
        serial = MonteCarloRunner(
            graph, VanillaGossip, x0, seed=42, backend=SerialBackend()
        ).run(6, max_events=400, thresholds=(0.5, 0.1))
        other = MonteCarloRunner(
            graph, VanillaGossip, x0, seed=42, backend=backend
        ).run(6, max_events=400, thresholds=(0.5, 0.1))
        assert_results_identical(serial, other)
        assert (
            ReplicateSummary.from_results(serial).to_dict()
            == ReplicateSummary.from_results(other).to_dict()
        )

    def test_random_workload_matches_across_backends(self, backend):
        """Per-replicate workload streams are backend-independent too."""
        graph = complete_graph(8)
        serial = MonteCarloRunner(
            graph, VanillaGossip, zero_mean_gaussian_workload, seed=7,
            backend="serial",
        ).run(4, max_events=200)
        other = MonteCarloRunner(
            graph, VanillaGossip, zero_mean_gaussian_workload, seed=7,
            backend=backend,
        ).run(4, max_events=200)
        assert_results_identical(serial, other)

    def test_algorithm_factory_across_backends(self, backend):
        graph = complete_graph(6)
        x0 = [float(i) for i in range(6)]
        factory = AlgorithmFactory(ConvexGossip, 0.75)
        serial = MonteCarloRunner(
            graph, factory, x0, seed=3, backend="serial"
        ).run(3, max_events=150)
        other = MonteCarloRunner(
            graph, factory, x0, seed=3, backend=backend
        ).run(3, max_events=150)
        assert_results_identical(serial, other)


@pytest.mark.slow
class TestWorkerCountIndependence:
    def test_deterministic_across_worker_counts(self):
        """2 vs 3 workers: scheduling must never leak into results."""
        graph = complete_graph(8)
        x0 = [1.0, -1.0] * 4
        two = MonteCarloRunner(
            graph, VanillaGossip, x0, seed=9, n_workers=2
        ).run(5, max_events=300)
        three = MonteCarloRunner(
            graph, VanillaGossip, x0, seed=9, n_workers=3
        ).run(5, max_events=300)
        assert_results_identical(two, three)

    def test_pool_is_reused_across_runs(self):
        """One backend instance keeps its worker pool warm between
        execute() calls (experiments make dozens of estimator calls)."""
        graph = complete_graph(8)
        x0 = [float(i) for i in range(8)]
        backend = ProcessPoolBackend(2)
        runner = MonteCarloRunner(
            graph, VanillaGossip, x0, seed=1, backend=backend
        )
        first = runner.run(3, max_events=100)
        pool = backend._pool
        assert pool is not None
        second = runner.run(3, max_events=100)
        assert backend._pool is pool  # same executor, no restart
        assert_results_identical(first, second)
        backend.shutdown()
        assert backend._pool is None
        # A post-shutdown run transparently builds a fresh pool.
        assert_results_identical(first, runner.run(3, max_events=100))
        backend.shutdown()

    def test_empty_batch_short_circuits(self):
        backend = ProcessPoolBackend(2)
        assert backend.execute([]) == []
        assert backend.execute_shared([], {}) == []
        assert backend._pool is None  # no batch ran, so no pool spawned


class TestFailureModelsThroughBackends:
    """Satellite coverage: both failure models through every backend."""

    @pytest.mark.parametrize(
        "clock_factory",
        [
            LossyPoissonClockFactory(15, 0.3),
            FailingPoissonClockFactory(15, 0.5),
            FailingPoissonClockFactory(15, {0: 1.0, 3: 2.5}),
        ],
        ids=["lossy", "failing-rate", "failing-scripted"],
    )
    def test_failure_clock_deterministic_across_backends(
        self, clock_factory, backend
    ):
        graph = complete_graph(6)
        assert graph.n_edges == 15
        x0 = [float(i) for i in range(6)]
        serial = MonteCarloRunner(
            graph, VanillaGossip, x0, seed=11,
            clock_factory=clock_factory, backend="serial",
        ).run(4, max_events=200)
        other = MonteCarloRunner(
            graph, VanillaGossip, x0, seed=11,
            clock_factory=clock_factory, backend=backend,
        ).run(4, max_events=200)
        assert_results_identical(serial, other)

    def test_factories_pickle(self):
        for factory in (
            LossyPoissonClockFactory(4, 0.2),
            FailingPoissonClockFactory(4, 1.5),
            FailingPoissonClockFactory(4, {1: 2.0}),
            PoissonClockFactory(4),
            AlgorithmFactory(ConvexGossip, 0.5),
        ):
            clone = pickle.loads(pickle.dumps(factory))
            assert type(clone) is type(factory)

    @pytest.mark.slow
    def test_scripted_deaths_silence_edges_under_pool(self):
        """A scripted death observable through the process backend."""
        graph = complete_graph(6)
        dead = dict.fromkeys(range(graph.n_edges), 0.0)
        keep = graph.n_edges - 1
        del dead[keep]  # only one surviving edge
        runner = MonteCarloRunner(
            graph, VanillaGossip, [float(i) for i in range(6)], seed=2,
            clock_factory=FailingPoissonClockFactory(graph.n_edges, dead),
            backend=ProcessPoolBackend(2),
        )
        for result in runner.run(2, max_events=100):
            # Every processed event came from the lone surviving edge, so
            # only its two endpoint values can have changed.
            u, v = (int(x) for x in graph.edges[keep])
            untouched = [i for i in range(6) if i not in (u, v)]
            assert np.array_equal(
                result.values[untouched],
                np.asarray([float(i) for i in untouched]),
            )


class TestStreamIndependence:
    """Regression: clock, workload and algorithm streams must not share
    a generator (they did — the algorithm used the clock's stream)."""

    def test_three_streams_are_distinct(self):
        captured = {}

        class CapturingAlgorithm(VanillaGossip):
            def setup(self, graph, values, rng):
                super().setup(graph, values, rng)
                captured["algorithm"] = rng

        class CapturingClockFactory:
            def __call__(self, rng):
                captured["clock"] = rng
                return PoissonEdgeClocks(15, seed=rng)

        def workload(rng):
            captured["workload"] = rng
            return [float(i) for i in range(6)]

        spec = ReplicateSpec(
            index=0,
            graph=complete_graph(6),
            algorithm_factory=CapturingAlgorithm,
            initial_values=workload,
            seed_sequence=np.random.SeedSequence(0),
            clock_factory=CapturingClockFactory(),
            run_kwargs={"max_events": 32},
        )
        execute_replicate(spec)
        assert set(captured) == {"algorithm", "clock", "workload"}
        rngs = list(captured.values())
        assert len({id(rng) for rng in rngs}) == 3
        draws = [rng.random() for rng in rngs]
        assert len(set(draws)) == 3  # independent streams, not copies

    def test_default_clock_uses_its_own_stream(self):
        """Even without a clock factory the algorithm gets a private rng."""
        captured = {}

        class CapturingAlgorithm(VanillaGossip):
            def setup(self, graph, values, rng):
                super().setup(graph, values, rng)
                captured["rng"] = rng

        spec = ReplicateSpec(
            index=0,
            graph=complete_graph(6),
            algorithm_factory=CapturingAlgorithm,
            initial_values=[float(i) for i in range(6)],
            seed_sequence=np.random.SeedSequence(1),
            run_kwargs={"max_events": 64},
        )
        result = execute_replicate(spec)
        assert result.n_events > 0
        # Replaying the clock substream reproduces the clock exactly,
        # proving the clock was not fed the algorithm's generator.
        clock_seq = np.random.SeedSequence(1).spawn(3)[0]
        replay = PoissonEdgeClocks(15, seed=np.random.default_rng(clock_seq))
        times, _ = replay.next_batch(result.n_events)
        assert times[-1] == pytest.approx(result.duration)


class TestBackendSelection:
    def test_resolve_backend_accepts_instances_and_names(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend
        assert isinstance(resolve_backend("serial"), SerialBackend)
        process = resolve_backend("process", n_workers=3)
        assert isinstance(process, ProcessPoolBackend)
        assert process.n_workers == 3

    def test_resolve_backend_from_worker_count(self):
        assert isinstance(resolve_backend(n_workers=1), SerialBackend)
        pool = resolve_backend(n_workers=4)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.n_workers == 4

    def test_resolved_process_backends_share_a_warm_pool(self):
        """Estimator calls resolve per call; sharing the backend per
        worker count is what lets them reuse one pool."""
        from repro.engine.averaging_time import estimate_averaging_time

        shared = resolve_backend(n_workers=2)
        assert resolve_backend("process", n_workers=2) is shared
        assert resolve_backend(n_workers=2) is shared
        graph = complete_graph(6)
        x0 = np.arange(6.0) - 2.5
        first = estimate_averaging_time(
            graph, VanillaGossip, x0, n_replicates=2, seed=4,
            max_time=20.0, n_workers=2,
        )
        pool = shared._pool
        assert pool is not None  # the call rode the shared backend
        second = estimate_averaging_time(
            graph, VanillaGossip, x0, n_replicates=2, seed=4,
            max_time=20.0, n_workers=2,
        )
        assert shared._pool is pool  # warm pool reused, not restarted
        assert first.samples.tolist() == second.samples.tolist()

    def test_env_var_reaches_named_backends(self, monkeypatch):
        """REPRO_WORKERS must steer name-resolved backends too, not just
        the backend=None path."""
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        process = resolve_backend("process")
        assert process.n_workers == 3
        # An explicit count still wins over the environment.
        assert resolve_backend("process", n_workers=2).n_workers == 2

    def test_unknown_name_lists_registered(self):
        with pytest.raises(SimulationError, match="process"):
            resolve_backend("threads")

    def test_env_var_selects_workers(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert default_n_workers() == 5
        backend = resolve_backend()
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.n_workers == 5
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert default_n_workers() == 1
        assert isinstance(resolve_backend(), SerialBackend)

    def test_invalid_selections_rejected(self, monkeypatch):
        with pytest.raises(SimulationError):
            resolve_backend("threads")
        with pytest.raises(SimulationError):
            resolve_backend(object())  # type: ignore[arg-type]
        with pytest.raises(SimulationError):
            resolve_backend(n_workers=0)
        with pytest.raises(SimulationError):
            ProcessPoolBackend(0)
        monkeypatch.setenv(WORKERS_ENV_VAR, "many")
        with pytest.raises(SimulationError):
            default_n_workers()
        monkeypatch.setenv(WORKERS_ENV_VAR, "-2")
        with pytest.raises(SimulationError):
            default_n_workers()

    def test_runner_rejects_short_backend_output(self):
        class LossyBackend(ExecutionBackend):
            name = "lossy"

            def execute(self, specs):
                return [execute_replicate(spec) for spec in specs[:-1]]

        runner = MonteCarloRunner(
            complete_graph(6), VanillaGossip, np.zeros(6), seed=0,
            backend=LossyBackend(),
        )
        with pytest.raises(SimulationError, match="returned 1 results"):
            runner.run(2, max_events=10)


class TestPicklability:
    def test_unpicklable_spec_fails_fast_with_guidance(self):
        graph = complete_graph(6)
        runner = MonteCarloRunner(
            graph, lambda: VanillaGossip(), np.zeros(6), seed=0,
            backend=ProcessPoolBackend(2),
        )
        with pytest.raises(SimulationError, match="AlgorithmFactory"):
            runner.run(2, max_events=10)

    def test_recorder_rejected_by_process_backend(self):
        """A caller-side recorder can't be filled across the process
        boundary; the backend must say so instead of silently returning
        an empty recorder."""
        from repro.engine.recorder import TraceRecorder

        runner = MonteCarloRunner(
            complete_graph(6), VanillaGossip,
            [float(i) for i in range(6)], seed=0,
            backend=ProcessPoolBackend(2),
        )
        with pytest.raises(SimulationError, match="recorder"):
            runner.run(2, max_events=50, recorder=TraceRecorder(10))
        # Serial execution (even under a 1-worker pool) still supports it.
        recorder = TraceRecorder(10)
        MonteCarloRunner(
            complete_graph(6), VanillaGossip,
            [float(i) for i in range(6)], seed=0,
            backend=ProcessPoolBackend(1),
        ).run(2, max_events=50, recorder=recorder)
        assert recorder.n_samples > 0

    def test_single_worker_pool_allows_lambdas(self):
        """n_workers=1 short-circuits in-process, so closures are fine."""
        graph = complete_graph(6)
        runner = MonteCarloRunner(
            graph, lambda: VanillaGossip(), np.zeros(6), seed=0,
            backend=ProcessPoolBackend(1),
        )
        assert len(runner.run(2, max_events=10)) == 2

    def test_replicate_spec_round_trips(self):
        pair = dumbbell_graph(16)
        spec = ReplicateSpec(
            index=3,
            graph=pair.graph,
            algorithm_factory=VanillaGossip,
            initial_values=np.arange(16, dtype=np.float64),
            seed_sequence=np.random.SeedSequence(5).spawn(4)[3],
            run_kwargs={"max_events": 50},
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert_results_identical(
            [execute_replicate(spec)], [execute_replicate(clone)]
        )

    def test_results_identical_tolerates_nan(self):
        """Diverged runs carry NaN; two byte-identical NaN results must
        still count as identical under the reproducibility contract."""
        import math

        from repro.engine.results import RunResult, results_identical

        def make():
            return RunResult(
                values=np.array([math.nan, 1.0]),
                duration=1.0, n_events=1, n_updates=1,
                variance_initial=1.0, variance_final=math.nan,
                sum_initial=0.0, sum_final=math.nan,
                stopped_by="diverged",
            )

        assert results_identical(make(), make())
        different = make()
        different.duration = 2.0
        assert not results_identical(make(), different)

    def test_algorithm_factory_validates_and_reprs(self):
        with pytest.raises(SimulationError):
            AlgorithmFactory(42)  # type: ignore[arg-type]
        factory = AlgorithmFactory(ConvexGossip, 0.75)
        assert "ConvexGossip" in repr(factory)
        assert factory().name.startswith("convex")
