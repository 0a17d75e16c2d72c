"""Unit tests for the Monte-Carlo runner and averaging-time estimators."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.engine.averaging_time import (
    PAPER_CONFIDENCE_QUANTILE,
    PAPER_VARIANCE_THRESHOLD,
    epsilon_averaging_time,
    estimate_averaging_time,
)
from repro.engine.metrics import variance_of, variance_ratio
from repro.engine.runner import MonteCarloRunner, ReplicateSummary
from repro.errors import SimulationError
from repro.graphs.topologies import complete_graph

from oracles import consensus_error


class TestMonteCarloRunner:
    def test_replicates_differ_but_are_reproducible(self, k6):
        runner = MonteCarloRunner(k6, VanillaGossip,
                                  [float(i) for i in range(6)], seed=0)
        results = runner.run(3, max_events=200)
        durations = [r.duration for r in results]
        assert len(set(durations)) == 3  # independent clock streams
        repeat = MonteCarloRunner(k6, VanillaGossip,
                                  [float(i) for i in range(6)], seed=0)
        again = repeat.run(3, max_events=200)
        assert durations == [r.duration for r in again]

    def test_callable_workload_receives_rng(self, k6):
        seen = []

        def workload(rng):
            values = rng.normal(size=6)
            seen.append(values.copy())
            return values - values.mean()

        runner = MonteCarloRunner(k6, VanillaGossip, workload, seed=1)
        runner.run(2, max_events=50)
        assert len(seen) == 2
        assert not np.allclose(seen[0], seen[1])

    def test_summary_aggregates(self, k6):
        runner = MonteCarloRunner(k6, VanillaGossip,
                                  [1.0, -1.0, 0, 0, 0, 0], seed=2)
        summary = runner.summary(4, target_ratio=1e-6)
        assert summary.n_replicates == 4
        assert summary.mean_variance_ratio <= 1e-6
        assert summary.max_sum_drift < 1e-9
        assert "mean_duration" in summary.to_dict()

    def test_zero_replicates_rejected(self, k6):
        runner = MonteCarloRunner(k6, VanillaGossip, np.zeros(6), seed=0)
        with pytest.raises(SimulationError):
            runner.run(0)
        with pytest.raises(SimulationError):
            ReplicateSummary.from_results([])

    def test_n_workers_does_not_change_results(self, k6):
        x0 = [float(i) for i in range(6)]
        serial = MonteCarloRunner(k6, VanillaGossip, x0, seed=0)
        parallel = MonteCarloRunner(k6, VanillaGossip, x0, seed=0,
                                    n_workers=2)
        assert parallel.backend.name == "process"
        serial_results = serial.run(3, max_events=200)
        parallel_results = parallel.run(3, max_events=200)
        assert [r.duration for r in serial_results] == \
            [r.duration for r in parallel_results]
        assert all(
            np.array_equal(a.values, b.values)
            for a, b in zip(serial_results, parallel_results)
        )

    def test_seed_sequence_accepted_as_root_seed(self, k6):
        root = np.random.SeedSequence(123)
        runner = MonteCarloRunner(k6, VanillaGossip, np.arange(6.0),
                                  seed=root)
        first = runner.run(2, max_events=100)
        again = MonteCarloRunner(k6, VanillaGossip, np.arange(6.0),
                                 seed=np.random.SeedSequence(123)).run(
                                     2, max_events=100)
        assert [r.duration for r in first] == [r.duration for r in again]
        # Regression: repeated run() on one runner must not drift (the
        # root used to be spawned in place, advancing its child counter).
        repeat = runner.run(2, max_events=100)
        assert [r.duration for r in first] == [r.duration for r in repeat]

    def test_replicate_streams_disjoint_from_caller_spawns(self, k6):
        """Regression: replicates used spawn keys (0,), (1,), ... — the
        same keys a caller spawning their own streams from the root gets,
        silently correlating 'independent' randomness."""
        caller_children = {
            child.spawn_key for child in np.random.SeedSequence(7).spawn(4)
        }
        for root in (np.random.SeedSequence(7), 7):  # both seed kinds
            specs = MonteCarloRunner(
                k6, VanillaGossip, np.zeros(6), seed=root
            ).build_specs(4, max_events=10)
            runner_keys = {spec.seed_sequence.spawn_key for spec in specs}
            assert not runner_keys & caller_children

    def test_specs_reexecutable_without_drift(self, k6):
        """Regression: execute_replicate spawned from the spec's seed
        sequence in place, so re-running the same specs list drifted."""
        from repro.engine.backends import SerialBackend

        specs = MonteCarloRunner(
            k6, VanillaGossip, [float(i) for i in range(6)], seed=3
        ).build_specs(2, max_events=100)
        first = SerialBackend().execute(specs)
        second = SerialBackend().execute(specs)
        assert [r.duration for r in first] == [r.duration for r in second]

    def test_clock_and_algorithm_streams_decoupled(self, k6):
        """Regression: the clock generator doubled as the algorithm's
        stream, so a clock consuming extra draws perturbed the algorithm.
        Now the event sequence is identical whether or not the algorithm
        draws randomness of its own."""
        from repro.algorithms.convex import RandomConvexGossip

        x0 = [float(i) for i in range(6)]
        vanilla = MonteCarloRunner(k6, VanillaGossip, x0, seed=8).run(
            2, max_events=150)
        random_convex = MonteCarloRunner(
            k6, RandomConvexGossip, x0, seed=8).run(2, max_events=150)
        # Same seed => same clock stream => same event times, even though
        # RandomConvexGossip consumes its (now private) algorithm stream.
        assert [r.duration for r in vanilla] == \
            [r.duration for r in random_convex]


class TestPaperEstimator:
    def test_constants_match_paper(self):
        assert PAPER_VARIANCE_THRESHOLD == pytest.approx(math.e**-2)
        assert PAPER_CONFIDENCE_QUANTILE == pytest.approx(1 - 1 / math.e)

    def test_monotone_estimate_reasonable_for_k16(self):
        """K_n averages in ~4/n time; the estimate must sit near that."""
        graph = complete_graph(16)
        x0 = [1.0 if i < 8 else -1.0 for i in range(16)]
        estimate = estimate_averaging_time(
            graph, VanillaGossip, x0, n_replicates=12, seed=3, max_time=50.0
        )
        assert not estimate.is_censored
        spectral = 4.0 / 16.0
        assert 0.2 * spectral < estimate.estimate < 8.0 * spectral
        assert estimate.n_replicates == 12
        assert estimate.n_censored == 0
        assert estimate.mean > 0

    def test_quantile_ordering(self):
        graph = complete_graph(12)
        x0 = [float(i) for i in range(12)]
        low = estimate_averaging_time(
            graph, VanillaGossip, x0, n_replicates=16, seed=4,
            max_time=50.0, quantile=0.25,
        )
        high = estimate_averaging_time(
            graph, VanillaGossip, x0, n_replicates=16, seed=4,
            max_time=50.0, quantile=0.9,
        )
        assert low.estimate <= high.estimate

    def test_censoring_reported(self, medium_dumbbell):
        """The paper-gain oscillation on a balanced dumbbell never settles."""
        partition = medium_dumbbell.partition
        x0 = np.where(partition.side == 0, 1.0, -1.0)

        def factory():
            return NonConvexSparseCutGossip(partition, epoch_length=1,
                                            gain="paper")

        estimate = estimate_averaging_time(
            medium_dumbbell.graph, factory, x0, n_replicates=3, seed=5,
            max_time=30.0,
        )
        assert estimate.n_censored == 3
        assert estimate.is_censored
        assert estimate.to_dict()["estimate"] is None

    def test_validation(self, k6):
        with pytest.raises(SimulationError):
            estimate_averaging_time(k6, VanillaGossip, np.zeros(6),
                                    max_time=1.0, threshold=2.0)
        with pytest.raises(SimulationError):
            estimate_averaging_time(k6, VanillaGossip, np.zeros(6),
                                    max_time=1.0, quantile=1.5)
        with pytest.raises(SimulationError, match="max_time"):
            estimate_averaging_time(k6, VanillaGossip, np.zeros(6))


class TestEpsilonEstimator:
    def test_smaller_epsilon_takes_longer(self):
        graph = complete_graph(16)
        x0 = [1.0 if i < 8 else -1.0 for i in range(16)]
        loose = epsilon_averaging_time(
            graph, VanillaGossip, x0, 0.5, n_replicates=8, seed=6,
            max_time=100.0,
        )
        tight = epsilon_averaging_time(
            graph, VanillaGossip, x0, 0.05, n_replicates=8, seed=6,
            max_time=100.0,
        )
        assert loose.estimate < tight.estimate
        assert tight.threshold == pytest.approx(0.05**2)

    def test_epsilon_validated(self, k6):
        with pytest.raises(SimulationError):
            epsilon_averaging_time(k6, VanillaGossip, np.zeros(6), 1.5,
                                   max_time=1.0)


class TestMetrics:
    def test_variance_of(self):
        assert variance_of([1.0, -1.0]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            variance_of([])

    def test_variance_ratio(self):
        assert variance_ratio([0.5, -0.5], [1.0, -1.0]) == pytest.approx(0.25)
        assert variance_ratio([1.0, -1.0], [2.0, 2.0]) == float("inf")
        assert variance_ratio([3.0, 3.0], [2.0, 2.0]) == 0.0

    def test_consensus_error(self):
        assert consensus_error([1.0, 2.0, 4.0], 2.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            consensus_error([], 0.0)
