"""Unit tests for the exact expected-dynamics module."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.graphs.graph import Graph
from repro.graphs.topologies import complete_graph

from oracles import VanillaMeanDynamics, cycle_graph, monte_carlo_expected_variance


class TestMeanDynamics:
    def test_mean_preserved_and_converges(self):
        dynamics = VanillaMeanDynamics(complete_graph(8))
        x0 = np.arange(8, dtype=float)
        for t in (0.0, 0.5, 5.0):
            expected = dynamics.expected_values(x0, t)
            assert expected.mean() == pytest.approx(x0.mean())
        late = dynamics.expected_values(x0, 50.0)
        assert np.allclose(late, x0.mean(), atol=1e-8)

    def test_t_zero_is_identity(self):
        dynamics = VanillaMeanDynamics(cycle_graph(6))
        x0 = np.array([3.0, -1.0, 0.5, 2.0, -4.0, -0.5])
        assert np.allclose(dynamics.expected_values(x0, 0.0), x0)

    def test_eigenmode_decays_at_its_rate(self):
        graph = cycle_graph(12)
        dynamics = VanillaMeanDynamics(graph)
        # Second eigenmode of the cycle: cos(2 pi k / n).
        mode = np.cos(2 * np.pi * np.arange(12) / 12)
        t = 2.0
        decayed = dynamics.expected_values(mode, t)
        eigenvalue = 2.0 * (1.0 - math.cos(2 * math.pi / 12))
        assert np.allclose(decayed, mode * math.exp(-0.5 * eigenvalue * t),
                           atol=1e-9)

    def test_envelopes_are_ordered(self):
        dynamics = VanillaMeanDynamics(cycle_graph(10))
        x0 = np.sin(np.arange(10))
        x0 -= x0.mean()
        for t in (0.1, 1.0, 3.0):
            low = dynamics.variance_of_expected(x0, t)
            high = dynamics.variance_upper_envelope(x0, t)
            assert low <= high + 1e-12

    def test_half_life(self):
        dynamics = VanillaMeanDynamics(complete_graph(8))
        assert dynamics.half_life_of_mode(1) == pytest.approx(
            2 * math.log(2) / 8
        )
        with pytest.raises(AnalysisError):
            dynamics.half_life_of_mode(0)

    def test_validation(self):
        dynamics = VanillaMeanDynamics(cycle_graph(5))
        with pytest.raises(AnalysisError):
            dynamics.expected_values(np.zeros(5), -1.0)
        with pytest.raises(AnalysisError):
            dynamics.expected_values(np.zeros(3), 1.0)
        with pytest.raises(AnalysisError):
            VanillaMeanDynamics(Graph(1, []))


class TestMonteCarloValidation:
    def test_mc_variance_inside_the_sandwich(self):
        graph = cycle_graph(12)
        x0 = np.sin(np.arange(12) * 2 * np.pi / 12)
        dynamics = VanillaMeanDynamics(graph)
        times = [0.5, 1.5, 3.0]
        mc = monte_carlo_expected_variance(
            graph, x0, times, n_replicates=40, seed=2
        )
        for t, measured in zip(times, mc):
            lower = dynamics.variance_of_expected(x0, t)
            upper = dynamics.variance_upper_envelope(x0, t)
            slack = 0.05 * float(np.var(x0))
            assert lower - slack <= measured <= upper + slack

    def test_grid_validation(self):
        graph = cycle_graph(5)
        with pytest.raises(AnalysisError):
            monte_carlo_expected_variance(graph, np.zeros(5), [])
        with pytest.raises(AnalysisError):
            monte_carlo_expected_variance(graph, np.zeros(5), [2.0, 1.0])
        with pytest.raises(AnalysisError):
            monte_carlo_expected_variance(graph, np.zeros(5), [1.0],
                                          n_replicates=0)
