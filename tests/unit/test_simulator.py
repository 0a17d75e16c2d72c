"""Unit tests for the event-driven simulator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.convex import ConvexGossip, RandomConvexGossip
from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.push_sum import PushSumGossip
from repro.algorithms.resilient import ResilientSparseCutGossip
from repro.algorithms.rules import (
    ConvexRule,
    MeanRule,
    RandomConvexRule,
    SparseCutRule,
    TwoTimescaleRule,
    declared_rule,
)
from repro.algorithms.second_order import AsyncSecondOrderGossip
from repro.algorithms.two_timescale import TwoTimescaleGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.schedule import ScriptedSchedule
from repro.core.multi_cut import MultiCutGossip
from repro.graphs.clustering import chain_of_cliques
from repro.engine.recorder import TraceRecorder
from repro.engine.simulator import Simulator, simulate
from repro.errors import SimulationError
from repro.graphs.graph import Graph

from oracles import RoundRobinSchedule, path_graph


class TestBasicRuns:
    def test_two_node_graph_converges_in_one_event(self):
        graph = Graph(2, [(0, 1)])
        result = simulate(graph, VanillaGossip(), [0.0, 2.0], seed=0,
                          target_ratio=1e-12)
        assert result.n_events == 1
        assert np.allclose(result.values, 1.0)
        assert result.stopped_by == "target_ratio"

    def test_sum_conserved(self, k6):
        result = simulate(
            k6, VanillaGossip(), [float(i) for i in range(6)], seed=1,
            target_ratio=1e-10,
        )
        assert result.sum_drift < 1e-9
        assert result.values.mean() == pytest.approx(2.5)

    def test_variance_reported_consistently(self, k6):
        x0 = [float(i) for i in range(6)]
        result = simulate(k6, VanillaGossip(), x0, seed=2, target_ratio=1e-6)
        assert result.variance_initial == pytest.approx(float(np.var(x0)))
        assert result.variance_final <= 1e-6 * result.variance_initial
        assert result.variance_ratio <= 1e-6

    def test_zero_variance_start_returns_immediately(self, k6):
        result = simulate(k6, VanillaGossip(), np.ones(6), seed=0,
                          target_ratio=0.5)
        assert result.n_events == 0
        assert result.stopped_by == "target_ratio"

    def test_max_events_budget(self, k6):
        result = simulate(k6, VanillaGossip(), [1.0, -1.0, 0, 0, 0, 0],
                          seed=0, max_events=10)
        assert result.n_events == 10
        assert result.stopped_by == "max_events"

    def test_max_time_budget(self, k6):
        result = simulate(k6, VanillaGossip(), [1.0, -1.0, 0, 0, 0, 0],
                          seed=0, max_time=0.5)
        assert result.duration >= 0.5
        assert result.stopped_by == "max_time"

    def test_requires_some_budget(self, k6):
        with pytest.raises(SimulationError, match="at least one"):
            simulate(k6, VanillaGossip(), np.zeros(6), seed=0)

    def test_shape_validation(self, k6):
        with pytest.raises(SimulationError):
            Simulator(k6, VanillaGossip(), np.zeros(4))

    def test_edgeless_graph_rejected(self):
        with pytest.raises(SimulationError, match="no edges"):
            Simulator(Graph(3, []), VanillaGossip(), np.zeros(3))

    def test_reproducible_with_seed(self, k6):
        x0 = [float(i) for i in range(6)]
        a = simulate(k6, VanillaGossip(), x0, seed=42, max_events=500)
        b = simulate(k6, VanillaGossip(), x0, seed=42, max_events=500)
        assert np.array_equal(a.values, b.values)
        assert a.duration == b.duration


class TestDeterministicClocks:
    def test_scripted_sequence_applies_in_order(self):
        graph = path_graph(3)
        schedule = ScriptedSchedule.uniform_times(
            [graph.edge_id(0, 1), graph.edge_id(1, 2)]
        )
        result = simulate(graph, VanillaGossip(), [4.0, 0.0, 0.0],
                          clock=schedule, max_events=10)
        # (0,1) -> [2,2,0]; then (1,2) -> [2,1,1].
        assert result.values.tolist() == [2.0, 1.0, 1.0]
        assert result.stopped_by == "clock_exhausted"

    def test_round_robin_touches_every_edge(self, k6):
        schedule = RoundRobinSchedule(k6.n_edges)
        result = simulate(k6, VanillaGossip(), [float(i) for i in range(6)],
                          clock=schedule, max_events=k6.n_edges)
        assert result.n_events == k6.n_edges
        assert result.n_updates == k6.n_edges

    def test_clock_edge_count_mismatch_rejected(self, k6):
        with pytest.raises(SimulationError, match="clock models"):
            Simulator(k6, VanillaGossip(), np.zeros(6),
                      clock=RoundRobinSchedule(3))

    def test_clock_without_n_edges_rejected(self, k6):
        """Regression: a clock lacking n_edges raised a raw AttributeError
        instead of a SimulationError explaining the protocol."""
        with pytest.raises(SimulationError, match="n_edges"):
            Simulator(k6, VanillaGossip(), np.zeros(6), clock=object())

    def test_clock_without_next_batch_rejected(self, k6):
        """Both halves of the batch protocol are validated up front."""
        from types import SimpleNamespace

        with pytest.raises(SimulationError, match="next_batch"):
            Simulator(k6, VanillaGossip(), np.zeros(6),
                      clock=SimpleNamespace(n_edges=15))


class TestCrossings:
    def test_monotone_crossing_consistency(self, k6):
        threshold = math.e**-2
        result = simulate(
            k6, VanillaGossip(), [float(i) for i in range(6)], seed=3,
            target_ratio=1e-8, thresholds=(threshold,),
        )
        crossing = result.crossing(threshold)
        assert crossing.first_below is not None
        assert crossing.last_above <= crossing.first_below
        assert crossing.first_below <= result.duration

    def test_multiple_thresholds_ordered(self, k6):
        result = simulate(
            k6, VanillaGossip(), [float(i) for i in range(6)], seed=4,
            target_ratio=1e-8, thresholds=(0.5, 0.1, 0.01),
        )
        t_50 = result.crossing(0.5).first_below
        t_10 = result.crossing(0.1).first_below
        t_01 = result.crossing(0.01).first_below
        assert t_50 <= t_10 <= t_01

    def test_untracked_threshold_raises(self, k6):
        result = simulate(k6, VanillaGossip(), [1.0, 0, 0, 0, 0, -1.0],
                          seed=0, max_events=5)
        with pytest.raises(KeyError, match="not tracked"):
            result.crossing(0.123)

    def test_nonconvex_last_above_beyond_first_below(self, medium_dumbbell):
        """Algorithm A's excursions make last_above > first_below.

        Construction: mostly within-side noise plus a small imbalance.
        Internal mixing pushes the variance below e^-2 of its start long
        before the first swap (epoch 12); the swap then spikes it back
        above the threshold before the system finally settles.
        """
        partition = medium_dumbbell.partition
        algo = NonConvexSparseCutGossip(partition, epoch_length=12, gain="exact")
        rng = np.random.default_rng(17)
        x0 = rng.normal(0.0, 1.0, size=32)
        x0 += np.where(partition.side == 0, 0.3, -0.3)
        x0 -= x0.mean()
        result = simulate(
            medium_dumbbell.graph, algo, x0, seed=5, max_time=100.0,
            target_ratio=1e-9, thresholds=(math.e**-2,),
        )
        crossing = result.crossing(math.e**-2)
        assert crossing.first_below is not None
        assert crossing.last_above > crossing.first_below
        assert result.stopped_by == "target_ratio"


class TestDivergenceGuard:
    def test_diverging_algorithm_aborts(self, k6):
        class Doubler(VanillaGossip):
            name = "doubler"
            monotone_variance = False

            def on_tick(self, edge_id, u, v, time, tick_count, values):
                return 2.0 * values[u] + 1.0, 2.0 * values[v] - 1.0

        result = simulate(k6, Doubler(), [1.0, -1.0, 0, 0, 0, 0], seed=0,
                          max_events=1_000_000, divergence_ratio=1e6)
        assert result.stopped_by == "diverged"
        assert result.n_events < 1_000_000


class TestRecorder:
    def test_samples_taken(self, k6):
        recorder = TraceRecorder(sample_every=10)
        result = simulate(k6, VanillaGossip(), [float(i) for i in range(6)],
                          seed=6, max_events=100, recorder=recorder)
        assert result.trace_times is not None
        assert recorder.n_samples >= 11  # t=0, 10 interior, final
        assert recorder.variances[0] == pytest.approx(result.variance_initial)

    def test_probes_evaluated(self, k6):
        recorder = TraceRecorder(
            sample_every=25, probes={"max": lambda x: float(np.max(x))}
        )
        simulate(k6, VanillaGossip(), [float(i) for i in range(6)],
                 seed=7, max_events=100, recorder=recorder)
        assert len(recorder.probe("max")) == recorder.n_samples
        with pytest.raises(KeyError):
            recorder.probe("unknown")

    def test_recorder_clear(self, k6):
        recorder = TraceRecorder(sample_every=10)
        simulate(k6, VanillaGossip(), [1.0, 0, 0, 0, 0, -1.0], seed=0,
                 max_events=50, recorder=recorder)
        recorder.clear()
        assert recorder.n_samples == 0

    def test_sample_every_validation(self):
        with pytest.raises(ValueError):
            TraceRecorder(sample_every=0)

    def test_final_sample_not_duplicated(self, k6):
        """Regression: when the last event coincided with a periodic
        sample, the endpoint was recorded twice, producing repeated
        (t, variance) trace points."""
        recorder = TraceRecorder(sample_every=10)
        result = simulate(k6, VanillaGossip(), [float(i) for i in range(6)],
                          seed=6, max_events=100, recorder=recorder)
        assert result.n_events == 100  # ends exactly on a sampling point
        assert recorder.n_samples == 11  # t=0 plus 10 periodic samples
        assert np.all(np.diff(recorder.times) > 0)

    def test_final_sample_recorded_between_sampling_points(self, k6):
        """The endpoint is still recorded when the run stops mid-period."""
        recorder = TraceRecorder(sample_every=10)
        result = simulate(k6, VanillaGossip(), [float(i) for i in range(6)],
                          seed=6, max_events=95, recorder=recorder)
        assert result.n_events == 95
        assert recorder.n_samples == 11  # t=0, 9 periodic, final
        assert recorder.times[-1] == pytest.approx(result.duration)


class TestIncrementalStatistics:
    def test_incremental_variance_matches_recompute(self, k6):
        """Force frequent exact recomputes and compare trajectories."""
        x0 = [float(i) for i in range(6)]
        fast = Simulator(k6, VanillaGossip(), x0, seed=8, recompute_every=1)
        loose = Simulator(k6, VanillaGossip(), x0, seed=8,
                          recompute_every=10_000)
        result_fast = fast.run(max_events=2_000)
        result_loose = loose.run(max_events=2_000)
        assert np.allclose(result_fast.values, result_loose.values)
        assert result_fast.variance_final == pytest.approx(
            result_loose.variance_final, rel=1e-9, abs=1e-15
        )

    def test_run_parameter_validation(self, k6):
        simulator = Simulator(k6, VanillaGossip(), np.zeros(6))
        with pytest.raises(SimulationError):
            simulator.run(max_time=-1.0)
        with pytest.raises(SimulationError):
            simulator.run(max_events=0)
        with pytest.raises(SimulationError):
            simulator.run(target_ratio=-0.5)
        with pytest.raises(SimulationError):
            simulator.run(max_events=5, thresholds=(0.0,))


class TestSimulateForwarding:
    """Regression: simulate() must forward the constructor-only knobs.

    ``batch_size`` and ``recompute_every`` are Simulator() parameters,
    not run() kwargs — an earlier version swallowed them into
    ``**run_kwargs`` where run() rejected them.
    """

    class CapturingClock:
        """Records every requested batch size."""

        def __init__(self, n_edges: int) -> None:
            self.n_edges = n_edges
            self.requests: "list[int]" = []

        def next_batch(self, k: int):
            self.requests.append(k)
            times = np.linspace(0.1, 0.1 * k, k)
            return times, np.zeros(k, dtype=np.int64)

    def test_batch_size_reaches_the_clock(self, k6):
        clock = self.CapturingClock(k6.n_edges)
        simulate(k6, VanillaGossip(), [float(i) for i in range(6)],
                 clock=clock, batch_size=17, max_events=40)
        assert clock.requests == [17, 17, 6]

    def test_recompute_every_is_validated_eagerly(self, k6):
        # Reaching the constructor's validation proves forwarding: as a
        # run() kwarg this would raise "unexpected keyword" instead.
        with pytest.raises(SimulationError, match="recompute_every"):
            simulate(k6, VanillaGossip(), np.zeros(6),
                     recompute_every=0, max_events=10)

    def test_recompute_cadence_does_not_change_the_trajectory(self, k6):
        # recompute_every only refreshes the incremental statistics; the
        # event stream and value trajectory must be untouched.  (batch_size
        # is NOT stream-invariant: it changes how the clock's generator
        # draws interleave, so same-seed runs only match at equal sizes.)
        x0 = [float(i) for i in range(6)]
        a = simulate(k6, VanillaGossip(), x0, seed=5, max_events=2_000)
        b = simulate(k6, VanillaGossip(), x0, seed=5, max_events=2_000,
                     recompute_every=7)
        assert np.array_equal(a.values, b.values)
        assert a.duration == b.duration
        assert a.n_events == b.n_events
        assert a.variance_final == pytest.approx(
            b.variance_final, rel=1e-9, abs=1e-15
        )


def count_on_tick(algorithm):
    """Wrap the instance's ``on_tick`` and return the call counter."""
    calls = [0]
    original = algorithm.on_tick

    def counted(*args):
        calls[0] += 1
        return original(*args)

    algorithm.on_tick = counted
    return calls


class TestDeclaredRuleDispatch:
    """Which runs take the declared-rule loop, and which call on_tick."""

    def test_declarations(self, small_dumbbell):
        assert declared_rule(VanillaGossip()) == MeanRule()
        assert declared_rule(ConvexGossip(0.25)) == ConvexRule(alpha=0.25)
        assert declared_rule(RandomConvexGossip(0.1, 0.6)) == RandomConvexRule(
            low=0.1, high=0.6
        )
        algorithm = NonConvexSparseCutGossip(
            small_dumbbell.partition, epoch_length=3
        )
        rule = declared_rule(algorithm)
        assert isinstance(rule, SparseCutRule)
        designated = small_dumbbell.designated_edge
        assert rule.edge_class[designated] == SparseCutRule.DESIGNATED
        (swap,) = rule.swaps
        assert (swap.edge, swap.epoch_length, swap.gain) == (
            designated, 3, algorithm.gain
        )
        assert {swap.a, swap.b} == set(
            small_dumbbell.graph.edge_endpoints(designated)
        )
        assert rule.oracle_sides is None

    def test_multi_cut_declares_one_swap_per_designated_edge(self):
        graph, clusters = chain_of_cliques(4, 3)
        algorithm = MultiCutGossip(clusters, epoch_lengths={(0, 1): 2, (1, 2): 5})
        rule = declared_rule(algorithm)
        assert isinstance(rule, SparseCutRule)
        assert [swap.edge for swap in rule.swaps] == algorithm.designated_edges
        assert [swap.epoch_length for swap in rule.swaps] == [2, 5]
        for swap in rule.swaps:
            assert rule.edge_class[swap.edge] == SparseCutRule.DESIGNATED
            assert clusters.labels[swap.a] < clusters.labels[swap.b]
            assert swap.gain == 4 * 4 / 8

    def test_two_timescale_declares_its_schedule(self, small_dumbbell):
        partition = small_dumbbell.partition
        for schedule in ("constant", "harmonic"):
            rule = declared_rule(
                TwoTimescaleGossip(partition, schedule=schedule, tau=4.0)
            )
            assert isinstance(rule, TwoTimescaleRule)
            assert rule.harmonic == (schedule == "harmonic")
            assert list(rule.cut_edges) == list(partition.cut_edge_ids)

    def test_stateful_rules_need_setup(self):
        for algorithm in (PushSumGossip(), AsyncSecondOrderGossip()):
            with pytest.raises(RuntimeError, match="setup"):
                algorithm.pairwise_rule()

    def test_declared_rules_skip_on_tick(self, small_dumbbell):
        graph = small_dumbbell.graph
        x0 = np.arange(graph.n_vertices, dtype=float)
        chain, clusters = chain_of_cliques(4, 3)
        for run_graph, algorithm in (
            (graph, VanillaGossip()),
            (graph, ConvexGossip(0.3)),
            (graph, NonConvexSparseCutGossip(small_dumbbell.partition, epoch_length=2)),
            (graph, PushSumGossip()),
            (graph, RandomConvexGossip(0.2, 0.7)),
            (graph, AsyncSecondOrderGossip(1.2)),
            (graph, TwoTimescaleGossip(small_dumbbell.partition)),
            (graph, TwoTimescaleGossip(small_dumbbell.partition, schedule="harmonic")),
            (chain, MultiCutGossip(clusters, epoch_lengths=2)),
        ):
            calls = count_on_tick(algorithm)
            values = x0[: run_graph.n_vertices]
            result = Simulator(run_graph, algorithm, values, seed=1).run(
                max_events=500
            )
            assert result.n_events == 500
            assert calls[0] == 0, algorithm.name

    def test_subclasses_and_recorders_call_on_tick_every_event(
        self, small_dumbbell
    ):
        graph = small_dumbbell.graph
        partition = small_dumbbell.partition
        chain, clusters = chain_of_cliques(4, 3)
        cases = [
            (graph, lambda cls: cls(), PushSumGossip),
            (graph, lambda cls: cls(0.2, 0.7), RandomConvexGossip),
            (graph, lambda cls: cls(1.2), AsyncSecondOrderGossip),
            (graph, lambda cls: cls(partition), TwoTimescaleGossip),
            (chain, lambda cls: cls(clusters, epoch_lengths=2), MultiCutGossip),
        ]
        for run_graph, build, cls in cases:
            subclass = type(f"Generic{cls.__name__}", (cls,), {})
            for algorithm, recorder in (
                (build(subclass), None),
                (build(cls), TraceRecorder(sample_every=50)),
            ):
                calls = count_on_tick(algorithm)
                values = np.arange(run_graph.n_vertices, dtype=float)
                result = Simulator(run_graph, algorithm, values, seed=1).run(
                    max_events=300, recorder=recorder
                )
                assert calls[0] == result.n_events == 300, cls.__name__

    def test_resilient_subclass_keeps_on_tick(self, small_dumbbell):
        algorithm = ResilientSparseCutGossip(
            small_dumbbell.partition, epoch_length=2
        )
        assert declared_rule(algorithm) is None
        calls = count_on_tick(algorithm)
        x0 = np.arange(small_dumbbell.graph.n_vertices, dtype=float)
        result = Simulator(small_dumbbell.graph, algorithm, x0, seed=1).run(
            max_events=500
        )
        assert calls[0] == result.n_events == 500

    def test_oracle_means_keeps_on_tick(self, small_dumbbell):
        algorithm = NonConvexSparseCutGossip(
            small_dumbbell.partition, epoch_length=2, oracle_means=True
        )
        calls = count_on_tick(algorithm)
        x0 = np.arange(small_dumbbell.graph.n_vertices, dtype=float)
        result = Simulator(small_dumbbell.graph, algorithm, x0, seed=1).run(
            max_events=500
        )
        assert calls[0] == result.n_events == 500
        assert algorithm.swap_count > 0

    def test_recorder_keeps_on_tick(self, k6):
        algorithm = VanillaGossip()
        calls = count_on_tick(algorithm)
        recorder = TraceRecorder(sample_every=10)
        result = Simulator(k6, algorithm, np.arange(6.0), seed=1).run(
            max_events=100, recorder=recorder
        )
        assert calls[0] == result.n_events == 100
        assert len(recorder.times) > 2

