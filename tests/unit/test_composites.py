"""Unit tests for bridged-pair builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs.composites import (
    dumbbell_graph,
    join_graphs,
    two_cliques,
    two_erdos_renyi,
    two_expanders,
    two_grids,
)
from repro.graphs.topologies import complete_graph

from oracles import bridged_pair, path_graph


class TestJoinGraphs:
    def test_vertex_and_edge_counts(self):
        pair = join_graphs(complete_graph(4), complete_graph(5), [(0, 0)])
        assert pair.graph.n_vertices == 9
        assert pair.graph.n_edges == 6 + 10 + 1

    def test_partition_matches_sides(self):
        pair = join_graphs(path_graph(3), path_graph(4), [(2, 0)])
        assert pair.partition.n1 == 3
        assert pair.partition.n2 == 4
        assert pair.partition.cut_size == 1

    def test_bridge_edge_ids_are_cut_edges(self):
        pair = join_graphs(complete_graph(3), complete_graph(3), [(0, 0), (2, 1)])
        assert set(pair.bridge_edge_ids.tolist()) == set(
            pair.partition.cut_edge_ids.tolist()
        )

    def test_designated_edge_is_a_bridge(self):
        pair = two_cliques(4, 4, n_bridges=3)
        assert pair.designated_edge in pair.bridge_edge_ids

    def test_no_bridges_rejected(self):
        with pytest.raises(GraphError, match="at least one bridge"):
            join_graphs(complete_graph(3), complete_graph(3), [])

    def test_bad_bridge_endpoint_rejected(self):
        with pytest.raises(GraphError, match="not a vertex"):
            join_graphs(complete_graph(3), complete_graph(3), [(5, 0)])

    def test_duplicate_bridge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            join_graphs(complete_graph(3), complete_graph(3), [(0, 0), (0, 0)])

    def test_to_dict_summary(self):
        info = dumbbell_graph(8).to_dict()
        assert info["n1"] == 4 and info["cut_size"] == 1


class TestFamilies:
    def test_dumbbell_structure(self):
        pair = dumbbell_graph(12)
        assert pair.graph.n_vertices == 12
        assert pair.graph.n_edges == 2 * 15 + 1
        assert pair.partition.cut_size == 1
        ok1, ok2 = pair.partition.sides_connected()
        assert ok1 and ok2

    def test_dumbbell_odd_size_rejected(self):
        with pytest.raises(GraphError):
            dumbbell_graph(7)
        with pytest.raises(GraphError):
            dumbbell_graph(2)

    def test_two_cliques_unbalanced(self):
        pair = two_cliques(3, 9, n_bridges=2)
        assert pair.partition.n1 == 3
        assert pair.partition.cut_size == 2

    def test_two_cliques_random_bridges_distinct(self):
        pair = two_cliques(6, 6, n_bridges=5, seed=3)
        assert pair.partition.cut_size == 5

    def test_too_many_bridges_rejected(self):
        with pytest.raises(GraphError, match="distinct bridges"):
            two_cliques(2, 2, n_bridges=5)

    def test_two_expanders_regular_inside(self):
        pair = two_expanders(12, 12, degree=4, n_bridges=1, seed=1)
        degrees = pair.graph.degrees
        # All vertices have degree 4 except the two bridge endpoints (5).
        assert sorted(np.unique(degrees).tolist()) == [4, 5]
        assert pair.graph.is_connected()

    def test_two_grids(self):
        pair = two_grids(3, 4, n_bridges=2, seed=5)
        assert pair.graph.n_vertices == 24
        assert pair.partition.cut_size == 2

    def test_two_erdos_renyi_connected_sides(self):
        pair = two_erdos_renyi(16, 20, n_bridges=1, seed=9)
        ok1, ok2 = pair.partition.sides_connected()
        assert ok1 and ok2

    def test_bridged_pair_dispatch(self):
        assert bridged_pair("clique", 5).graph.n_vertices == 10
        assert bridged_pair("expander", 12, degree=4, seed=0).graph.n_vertices == 24
        assert bridged_pair("er", 12, seed=0).graph.n_vertices == 24
        grid = bridged_pair("grid", 12)
        assert grid.graph.n_vertices == 24

    def test_bridged_pair_unknown_family(self):
        with pytest.raises(GraphError, match="unknown family"):
            bridged_pair("mystery", 8)
