"""Property-based tests of the engine's bookkeeping and the clocks."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.convex import ConvexGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.poisson import PoissonEdgeClocks
from repro.clocks.schedule import ScriptedSchedule
from repro.engine.simulator import simulate
from repro.graphs.topologies import complete_graph

from oracles import cycle_graph

values_8 = st.lists(
    st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False),
    min_size=8,
    max_size=8,
)


class TestEngineBookkeeping:
    @given(values_8, st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_final_variance_matches_numpy(self, initial, seed):
        graph = complete_graph(8)
        result = simulate(graph, VanillaGossip(), initial, seed=seed,
                          max_events=300)
        assert result.variance_final == float(np.var(result.values))

    @given(values_8, st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=30)
    def test_sum_conserved_for_class_c(self, initial, seed, alpha):
        graph = complete_graph(8)
        result = simulate(graph, ConvexGossip(alpha), initial, seed=seed,
                          max_events=400)
        scale = max(1.0, float(np.max(np.abs(initial))))
        assert result.sum_drift <= 1e-7 * scale * 8

    @given(values_8, st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_crossing_times_bounded_by_duration(self, initial, seed):
        graph = cycle_graph(8)
        result = simulate(
            graph, VanillaGossip(), initial, seed=seed, max_events=200,
            thresholds=(0.5, 0.05),
        )
        for crossing in result.crossings.values():
            assert crossing.last_above <= result.duration + 1e-12
            if crossing.first_below is not None:
                assert crossing.first_below <= result.duration + 1e-12

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=40),
        values_8,
    )
    @settings(max_examples=30)
    def test_scripted_runs_are_deterministic(self, edge_ids, initial):
        from hypothesis import assume

        # Zero-variance starts legitimately short-circuit to 0 events.
        assume(float(np.var(initial)) > 0.0)
        graph = cycle_graph(8)
        def run_once():
            schedule = ScriptedSchedule.uniform_times(
                edge_ids, n_edges=graph.n_edges
            )
            return simulate(graph, VanillaGossip(), initial,
                            clock=schedule, max_events=1000)
        a, b = run_once(), run_once()
        assert np.array_equal(a.values, b.values)
        assert a.n_events == b.n_events == len(edge_ids)


class TestClockProperties:
    @given(st.integers(1, 50), st.integers(0, 2**31 - 1), st.integers(1, 500))
    @settings(max_examples=30)
    def test_batches_preserve_order_and_range(self, m, seed, batch):
        clocks = PoissonEdgeClocks(m, seed=seed)
        times, edges = clocks.next_batch(batch)
        assert len(times) == len(edges) == batch
        assert np.all(np.diff(times) > 0)
        assert edges.min() >= 0 and edges.max() < m

    @given(st.integers(2, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_exponential_gaps_have_unit_mean_rate_m(self, m, seed):
        clocks = PoissonEdgeClocks(m, seed=seed)
        times, _ = clocks.next_batch(4000)
        gaps = np.diff(np.concatenate([[0.0], times]))
        # Mean gap = 1/m within generous Monte-Carlo tolerance.
        assert abs(float(np.mean(gaps)) * m - 1.0) <= 0.15
