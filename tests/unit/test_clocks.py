"""Unit tests for clock processes and counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clocks.poisson import PoissonEdgeClocks
from repro.clocks.schedule import ScriptedSchedule

from oracles import EdgeTick, RoundRobinSchedule, TickCounters


class TestEdgeTick:
    def test_ordering_by_time(self):
        assert EdgeTick(1.0, 5) < EdgeTick(2.0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeTick(-1.0, 0)
        with pytest.raises(ValueError):
            EdgeTick(0.0, -1)


class TestPoissonClocks:
    def test_times_strictly_increasing(self):
        clocks = PoissonEdgeClocks(10, seed=0)
        times, _ = clocks.next_batch(1000)
        assert np.all(np.diff(times) > 0)

    def test_batches_continue_in_time(self):
        clocks = PoissonEdgeClocks(10, seed=0)
        first, _ = clocks.next_batch(100)
        second, _ = clocks.next_batch(100)
        assert second[0] > first[-1]
        assert clocks.now == pytest.approx(float(second[-1]))

    def test_edge_ids_in_range(self):
        clocks = PoissonEdgeClocks(7, seed=1)
        _, edges = clocks.next_batch(500)
        assert edges.min() >= 0 and edges.max() < 7

    def test_mean_rate_close_to_total(self):
        m = 20
        clocks = PoissonEdgeClocks(m, seed=2)
        times, _ = clocks.next_batch(20_000)
        # 20k events at total rate 20 should take about 1000 time units.
        assert times[-1] == pytest.approx(1000.0, rel=0.05)

    def test_edge_counts_roughly_uniform(self):
        m = 5
        clocks = PoissonEdgeClocks(m, seed=3)
        _, edges = clocks.next_batch(25_000)
        counts = np.bincount(edges, minlength=m)
        assert counts.min() > 0.9 * 25_000 / m
        assert counts.max() < 1.1 * 25_000 / m

    def test_heterogeneous_rates(self):
        rates = np.array([1.0, 9.0])
        clocks = PoissonEdgeClocks(2, rates=rates, seed=4)
        assert clocks.total_rate == pytest.approx(10.0)
        _, edges = clocks.next_batch(20_000)
        fraction_edge_1 = float(np.mean(edges == 1))
        assert fraction_edge_1 == pytest.approx(0.9, abs=0.02)

    def test_expected_ticks_per_edge(self):
        clocks = PoissonEdgeClocks(3, seed=0)
        assert np.allclose(clocks.expected_ticks_per_edge(2.5), 2.5)
        weighted = PoissonEdgeClocks(2, rates=np.array([1.0, 2.0]), seed=0)
        assert np.allclose(weighted.expected_ticks_per_edge(3.0), [3.0, 6.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonEdgeClocks(0)
        with pytest.raises(ValueError):
            PoissonEdgeClocks(2, rates=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            PoissonEdgeClocks(2, rates=np.array([1.0]))
        clocks = PoissonEdgeClocks(2, seed=0)
        with pytest.raises(ValueError):
            clocks.next_batch(0)

    def test_reproducible_with_seed(self):
        a_times, a_edges = PoissonEdgeClocks(5, seed=9).next_batch(50)
        b_times, b_edges = PoissonEdgeClocks(5, seed=9).next_batch(50)
        assert np.array_equal(a_times, b_times)
        assert np.array_equal(a_edges, b_edges)


class TestSchedules:
    def test_round_robin_cycles(self):
        schedule = RoundRobinSchedule(3)
        _, edges = schedule.next_batch(7)
        assert edges.tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_round_robin_spacing(self):
        schedule = RoundRobinSchedule(4, spacing=0.5)
        times, _ = schedule.next_batch(3)
        assert times.tolist() == [0.5, 1.0, 1.5]

    def test_round_robin_default_spacing_matches_rate(self):
        schedule = RoundRobinSchedule(4)
        times, _ = schedule.next_batch(4)
        assert times[-1] == pytest.approx(1.0)

    def test_scripted_schedule_emits_and_dries_up(self):
        schedule = ScriptedSchedule([(0.5, 1), (1.5, 0)])
        times, edges = schedule.next_batch(10)
        assert times.tolist() == [0.5, 1.5]
        assert edges.tolist() == [1, 0]
        empty_times, empty_edges = schedule.next_batch(10)
        assert len(empty_times) == 0 and len(empty_edges) == 0

    def test_scripted_uniform_times(self):
        schedule = ScriptedSchedule.uniform_times([2, 0, 1], spacing=2.0)
        times, edges = schedule.next_batch(3)
        assert times.tolist() == [2.0, 4.0, 6.0]
        assert edges.tolist() == [2, 0, 1]
        assert schedule.remaining == 0

    def test_scripted_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            ScriptedSchedule([(1.0, 0), (1.0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            ScriptedSchedule([(1.0, 5)], n_edges=2)


class TestTickCounters:
    def test_record_and_count(self):
        counters = TickCounters(3)
        assert counters.record(1) == 1
        assert counters.record(1) == 2
        assert counters.count(1) == 2
        assert counters.count(0) == 0
        assert counters.total == 2

    def test_reset(self):
        counters = TickCounters(2)
        counters.record(0)
        counters.reset()
        assert counters.total == 0

    def test_counts_copy(self):
        counters = TickCounters(2)
        counters.record(0)
        snapshot = counters.counts()
        snapshot[0] = 99
        assert counters.count(0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TickCounters(0)
        counters = TickCounters(2)
        with pytest.raises(ValueError):
            counters.record(5)
