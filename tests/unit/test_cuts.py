"""Unit tests for sparse-cut detection."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.graphs.cuts import brute_force_min_conductance_cut, fiedler_sweep_cut
from repro.graphs.composites import two_cliques
from repro.graphs.graph import Graph
from repro.graphs.topologies import complete_graph

from oracles import conductance_of_side, path_graph


class TestSweepCut:
    def test_recovers_planted_dumbbell_cut(self, small_dumbbell):
        result = fiedler_sweep_cut(small_dumbbell.graph)
        planted = small_dumbbell.partition
        assert result.partition.cut_size == planted.cut_size == 1
        assert set(result.partition.vertices_1.tolist()) in (
            set(planted.vertices_1.tolist()),
            set(planted.vertices_2.tolist()),
        )

    def test_recovers_unbalanced_cut(self):
        pair = two_cliques(5, 11, n_bridges=1)
        result = fiedler_sweep_cut(pair.graph)
        assert result.partition.cut_size == 1
        assert result.partition.n1 == 5

    def test_connected_sides_flag(self, medium_dumbbell):
        result = fiedler_sweep_cut(
            medium_dumbbell.graph, require_connected_sides=True
        )
        ok1, ok2 = result.partition.sides_connected()
        assert ok1 and ok2

    def test_path_cut_in_middle(self):
        result = fiedler_sweep_cut(path_graph(10))
        assert result.partition.cut_size == 1
        assert result.partition.n1 == 5

    def test_tiny_graph_rejected(self):
        with pytest.raises(GraphError):
            fiedler_sweep_cut(Graph(1, []))

    def test_result_to_dict(self, small_dumbbell):
        info = fiedler_sweep_cut(small_dumbbell.graph).to_dict()
        assert info["method"] == "fiedler_sweep"
        assert info["cut_size"] == 1


class TestBruteForce:
    def test_matches_sweep_on_small_dumbbell(self):
        pair = two_cliques(4, 4, n_bridges=1)
        exact = brute_force_min_conductance_cut(pair.graph)
        sweep = fiedler_sweep_cut(pair.graph)
        assert exact.conductance == pytest.approx(sweep.conductance)

    def test_exact_on_path(self):
        result = brute_force_min_conductance_cut(path_graph(6))
        # Middle cut: 1 crossing edge / volume 5.
        assert result.conductance == pytest.approx(1 / 5)

    def test_size_guard(self):
        with pytest.raises(GraphError, match="limited"):
            brute_force_min_conductance_cut(complete_graph(25))

    def test_sweep_is_optimal_on_cycles(self):
        from oracles import cycle_graph

        exact = brute_force_min_conductance_cut(cycle_graph(10))
        sweep = fiedler_sweep_cut(cycle_graph(10))
        assert sweep.conductance <= exact.conductance * 1.5  # Cheeger slack


class TestConductanceHelper:
    def test_matches_partition_value(self, k6):
        assert conductance_of_side(k6, [0, 1, 2]) == pytest.approx(9 / 15)
