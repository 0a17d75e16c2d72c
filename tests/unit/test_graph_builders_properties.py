"""Unit tests for graph builders and structural property helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError, GraphError
from repro.graphs.graph import Graph
from repro.graphs.properties import (
    density,
    diameter,
    is_connected,
    shortest_path_lengths,
)
from repro.graphs.topologies import complete_graph

from oracles import (
    add_edges,
    connected_components,
    cycle_graph,
    disjoint_union,
    graph_from_adjacency_matrix,
    graph_from_edge_list,
    path_graph,
    relabel_graph,
)


class TestBuilders:
    def test_from_edge_list_infers_size(self):
        graph = graph_from_edge_list([(0, 3), (1, 2)])
        assert graph.n_vertices == 4

    def test_from_edge_list_explicit_size(self):
        graph = graph_from_edge_list([(0, 1)], n_vertices=5)
        assert graph.n_vertices == 5

    def test_from_adjacency_roundtrip(self, c8):
        rebuilt = graph_from_adjacency_matrix(c8.adjacency_matrix())
        assert rebuilt == c8

    def test_adjacency_validation(self):
        with pytest.raises(GraphError, match="square"):
            graph_from_adjacency_matrix(np.ones((2, 3)))
        with pytest.raises(GraphError, match="symmetric"):
            graph_from_adjacency_matrix(np.array([[0, 1], [0, 0]]))
        with pytest.raises(GraphError, match="diagonal"):
            graph_from_adjacency_matrix(np.eye(2))
        with pytest.raises(GraphError, match="0 or 1"):
            graph_from_adjacency_matrix(np.array([[0, 2], [2, 0]]))

    def test_relabel_permutes_edges(self):
        graph = path_graph(3)
        relabeled = relabel_graph(graph, [2, 1, 0])
        assert relabeled.has_edge(2, 1) and relabeled.has_edge(1, 0)

    def test_relabel_validates_permutation(self, triangle):
        with pytest.raises(GraphError, match="permutation"):
            relabel_graph(triangle, [0, 0, 1])
        with pytest.raises(GraphError, match="length"):
            relabel_graph(triangle, [0, 1])

    def test_disjoint_union(self):
        union = disjoint_union(path_graph(2), path_graph(3))
        assert union.n_vertices == 5
        assert union.n_edges == 3
        assert not union.is_connected()

    def test_add_edges(self):
        graph = add_edges(path_graph(3), [(0, 2)])
        assert graph.n_edges == 3


class TestProperties:
    def test_is_connected(self, c8):
        assert is_connected(c8)
        assert not is_connected(Graph(3, [(0, 1)]))

    def test_connected_components(self):
        graph = Graph(5, [(0, 1), (2, 3)])
        components = connected_components(graph)
        assert [c.tolist() for c in components] == [[0, 1], [2, 3], [4]]

    def test_shortest_paths(self):
        distances = shortest_path_lengths(path_graph(5), 0)
        assert distances.tolist() == [0, 1, 2, 3, 4]

    def test_shortest_paths_unreachable(self):
        distances = shortest_path_lengths(Graph(3, [(0, 1)]), 0)
        assert distances[2] == -1

    @pytest.mark.parametrize(
        "graph,expected",
        [
            (path_graph(6), 5),
            (cycle_graph(8), 4),
            (complete_graph(5), 1),
        ],
    )
    def test_diameter(self, graph, expected):
        assert diameter(graph) == expected

    def test_diameter_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            diameter(Graph(3, [(0, 1)]))

    def test_density(self):
        assert density(complete_graph(5)) == pytest.approx(1.0)
        assert density(Graph(1, [])) == 0.0
