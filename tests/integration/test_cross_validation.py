"""Cross-validation against networkx as an independent oracle.

networkx is deliberately used nowhere in the library; here it checks our
graph algorithms, spectra and generators from the outside.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graphs.composites import dumbbell_graph
from repro.graphs.cuts import fiedler_sweep_cut
from repro.graphs.graph import Graph
from repro.graphs.properties import diameter
from repro.graphs.spectral import algebraic_connectivity, laplacian_matrix
from repro.graphs.topologies import erdos_renyi_graph, grid_graph, random_regular_graph

from oracles import hypercube_graph


def to_networkx(graph: Graph) -> "nx.Graph":
    out = nx.Graph()
    out.add_nodes_from(range(graph.n_vertices))
    out.add_edges_from(map(tuple, graph.edges.tolist()))
    return out


class TestAgainstNetworkx:
    @pytest.mark.parametrize(
        "graph",
        [
            grid_graph(4, 5),
            hypercube_graph(4),
            erdos_renyi_graph(24, 0.3, seed=1),
            random_regular_graph(20, 4, seed=2),
            dumbbell_graph(16).graph,
        ],
        ids=["grid", "hypercube", "er", "regular", "dumbbell"],
    )
    def test_laplacian_and_connectivity_agree(self, graph):
        nxg = to_networkx(graph)
        ours = laplacian_matrix(graph)
        theirs = nx.laplacian_matrix(nxg, nodelist=sorted(nxg)).toarray()
        assert np.array_equal(ours, theirs)
        ours_gap = algebraic_connectivity(graph)
        theirs_gap = float(
            sorted(np.linalg.eigvalsh(theirs.astype(float)))[1]
        )
        assert ours_gap == pytest.approx(theirs_gap, abs=1e-8)

    @pytest.mark.parametrize(
        "graph",
        [grid_graph(3, 6), hypercube_graph(3), erdos_renyi_graph(18, 0.3, seed=4)],
        ids=["grid", "hypercube", "er"],
    )
    def test_diameter_agrees(self, graph):
        assert diameter(graph) == nx.diameter(to_networkx(graph))

    def test_connectivity_detector_agrees(self):
        for seed in range(6):
            graph = erdos_renyi_graph(
                16, 0.12, seed=seed, require_connected=False
            )
            assert graph.is_connected() == nx.is_connected(to_networkx(graph))

    def test_sweep_cut_conductance_matches_networkx_formula(self):
        pair = dumbbell_graph(20)
        result = fiedler_sweep_cut(pair.graph)
        nxg = to_networkx(pair.graph)
        side = set(result.partition.vertices_1.tolist())
        theirs = nx.conductance(nxg, side)
        assert result.conductance == pytest.approx(theirs)

    def test_random_regular_degree_sequence_via_networkx(self):
        graph = random_regular_graph(30, 6, seed=5)
        nxg = to_networkx(graph)
        degrees = [d for _, d in nxg.degree()]
        assert degrees == [6] * 30
