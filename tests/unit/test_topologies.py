"""Unit tests for the topology generators."""

from __future__ import annotations

import math

import pytest

from repro.errors import GraphError
from repro.graphs.topologies import (
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    random_regular_graph,
)

from oracles import (
    binary_tree,
    cycle_graph,
    hypercube_graph,
    lollipop_graph,
    path_graph,
    random_geometric_graph,
    star_graph,
    torus_graph,
)


class TestDeterministicFamilies:
    def test_complete_graph_counts(self):
        graph = complete_graph(7)
        assert graph.n_edges == 21
        assert all(graph.degree(v) == 6 for v in graph)

    def test_complete_graph_minimum(self):
        assert complete_graph(1).n_edges == 0
        with pytest.raises(GraphError):
            complete_graph(0)

    def test_path_graph(self):
        graph = path_graph(5)
        assert graph.n_edges == 4
        assert graph.degree(0) == 1
        assert graph.degree(2) == 2

    def test_single_vertex_path(self):
        assert path_graph(1).n_edges == 0

    def test_cycle_graph(self):
        graph = cycle_graph(6)
        assert graph.n_edges == 6
        assert all(graph.degree(v) == 2 for v in graph)
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star_graph(self):
        graph = star_graph(9)
        assert graph.degree(0) == 8
        assert all(graph.degree(v) == 1 for v in range(1, 9))

    def test_grid_graph(self):
        graph = grid_graph(3, 4)
        assert graph.n_vertices == 12
        assert graph.n_edges == 3 * 3 + 2 * 4  # vertical + horizontal
        assert graph.is_connected()

    def test_grid_corner_degrees(self):
        graph = grid_graph(3, 3)
        assert graph.degree(0) == 2
        assert graph.degree(4) == 4  # center

    def test_torus_graph_regular(self):
        graph = torus_graph(3, 4)
        assert graph.n_vertices == 12
        assert all(graph.degree(v) == 4 for v in graph)
        with pytest.raises(GraphError):
            torus_graph(2, 5)

    def test_hypercube(self):
        graph = hypercube_graph(4)
        assert graph.n_vertices == 16
        assert graph.n_edges == 32
        assert all(graph.degree(v) == 4 for v in graph)

    def test_binary_tree(self):
        graph = binary_tree(3)
        assert graph.n_vertices == 15
        assert graph.n_edges == 14
        assert graph.is_connected()
        assert binary_tree(0).n_vertices == 1

    def test_lollipop(self):
        graph = lollipop_graph(5, 3)
        assert graph.n_vertices == 8
        assert graph.n_edges == 10 + 3
        assert graph.is_connected()


class TestRandomFamilies:
    def test_erdos_renyi_connected(self):
        graph = erdos_renyi_graph(30, 0.3, seed=1)
        assert graph.n_vertices == 30
        assert graph.is_connected()

    def test_erdos_renyi_deterministic_with_seed(self):
        a = erdos_renyi_graph(20, 0.3, seed=5)
        b = erdos_renyi_graph(20, 0.3, seed=5)
        assert a == b

    def test_erdos_renyi_p_one_is_complete(self):
        graph = erdos_renyi_graph(8, 1.0, seed=0)
        assert graph.n_edges == 28

    def test_erdos_renyi_invalid_p(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(10, 1.5)

    def test_erdos_renyi_gives_up_when_disconnected(self):
        with pytest.raises(GraphError, match="connected"):
            erdos_renyi_graph(40, 0.001, seed=3)

    @pytest.mark.parametrize("n,degree", [(12, 3), (16, 8), (50, 8), (24, 4)])
    def test_random_regular_is_regular_connected(self, n, degree):
        graph = random_regular_graph(n, degree, seed=7)
        assert all(graph.degree(v) == degree for v in graph)
        assert graph.is_connected()

    def test_random_regular_parity_rejected(self):
        with pytest.raises(GraphError, match="even"):
            random_regular_graph(7, 3)

    def test_random_regular_degree_bounds(self):
        with pytest.raises(GraphError):
            random_regular_graph(8, 8)
        with pytest.raises(GraphError):
            random_regular_graph(8, 0)

    def test_random_geometric_connected(self):
        radius = 2.0 * math.sqrt(math.log(30) / 30)
        graph = random_geometric_graph(30, radius, seed=2)
        assert graph.is_connected()

    def test_random_geometric_invalid_radius(self):
        with pytest.raises(GraphError):
            random_geometric_graph(10, 0.0)

    def test_random_regular_expansion(self):
        """8-regular random graphs should have a healthy spectral gap."""
        from repro.graphs.spectral import algebraic_connectivity

        graph = random_regular_graph(64, 8, seed=11)
        # Friedman: lambda_2(L) ~ d - 2 sqrt(d-1) ~ 2.7; allow slack.
        assert algebraic_connectivity(graph) > 1.0
