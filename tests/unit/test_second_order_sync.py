"""Unit tests for the synchronous second-order diffusion baseline."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.algorithms.second_order import (
    SecondOrderDiffusionSync,
    diffusion_matrix,
    optimal_second_order_beta,
    second_largest_modulus,
)
from repro.errors import AlgorithmError
from repro.graphs.topologies import complete_graph

from oracles import cycle_graph, path_graph


class TestDiffusionMatrix:
    def test_doubly_stochastic(self, c8):
        matrix = diffusion_matrix(c8)
        assert np.allclose(matrix.sum(axis=0), 1.0)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.all(matrix >= -1e-12)

    def test_custom_step(self, c8):
        matrix = diffusion_matrix(c8, step=0.1)
        assert matrix[0, 0] == pytest.approx(1.0 - 0.1 * 2)

    def test_invalid_step(self, c8):
        with pytest.raises(AlgorithmError):
            diffusion_matrix(c8, step=-0.1)

    def test_second_largest_modulus_complete(self):
        # K_n with h = 1/n: M = I - L/n has eigenvalues {1, 0, ..., 0}.
        matrix = diffusion_matrix(complete_graph(8), step=1.0 / 8.0)
        assert second_largest_modulus(matrix) == pytest.approx(0.0, abs=1e-9)


class TestOptimalBeta:
    def test_in_range(self):
        for graph in (path_graph(12), cycle_graph(9), complete_graph(6)):
            beta = optimal_second_order_beta(graph)
            assert 1.0 <= beta < 2.0

    def test_slower_graphs_need_larger_beta(self):
        beta_path = optimal_second_order_beta(path_graph(30))
        beta_complete = optimal_second_order_beta(complete_graph(30))
        assert beta_path > beta_complete


class TestSyncRun:
    def test_converges_on_cycle(self):
        solver = SecondOrderDiffusionSync(cycle_graph(12))
        x0 = np.arange(12, dtype=float)
        final, trace = solver.run(x0, target_ratio=1e-4, max_rounds=10_000)
        assert trace[-1] / trace[0] <= 1e-4
        assert final.mean() == pytest.approx(x0.mean())

    def test_second_order_beats_first_order(self):
        """The classical quadratic speedup on a slow-mixing path."""
        graph = path_graph(40)
        x0 = np.arange(40, dtype=float)
        second = SecondOrderDiffusionSync(graph)
        first = SecondOrderDiffusionSync(graph, beta=1.0)
        rounds_second = second.rounds_to_ratio(x0, max_rounds=200_000)
        rounds_first = first.rounds_to_ratio(x0, max_rounds=200_000)
        assert rounds_second < rounds_first / 2

    def test_rounds_to_ratio_zero_variance(self):
        solver = SecondOrderDiffusionSync(cycle_graph(6))
        assert solver.rounds_to_ratio(np.ones(6)) == 0

    def test_trace_starts_at_initial_variance(self):
        solver = SecondOrderDiffusionSync(cycle_graph(6))
        x0 = np.arange(6, dtype=float)
        _, trace = solver.run(x0, target_ratio=0.5)
        assert trace[0] == pytest.approx(float(np.var(x0)))

    def test_validation(self):
        solver = SecondOrderDiffusionSync(cycle_graph(6))
        with pytest.raises(AlgorithmError):
            solver.run(np.zeros(5))
        with pytest.raises(AlgorithmError):
            solver.run(np.zeros(6), max_rounds=0)
        with pytest.raises(AlgorithmError):
            SecondOrderDiffusionSync(cycle_graph(6), beta=2.5)

    def test_round_count_matches_theory_scale(self):
        """Optimal second order on a path needs ~sqrt of first-order rounds."""
        graph = path_graph(24)
        x0 = np.sign(np.arange(24) - 11.5).astype(float)
        solver = SecondOrderDiffusionSync(graph)
        rounds = solver.rounds_to_ratio(x0, target_ratio=math.e**-2, max_rounds=100_000)
        rho = second_largest_modulus(diffusion_matrix(graph))
        first_order_scale = 2.0 / -math.log(rho)
        assert rounds < first_order_scale  # strictly better than 1st order
