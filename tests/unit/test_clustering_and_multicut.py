"""Unit tests for k-way clustering and the multi-cut extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multi_cut import MultiClusterAveraging, MultiCutGossip
from repro.errors import AlgorithmError, PartitionError
from repro.graphs.clustering import (
    ClusterPartition,
    chain_of_cliques,
    spectral_clusters,
)
from repro.graphs.graph import Graph
from repro.graphs.topologies import complete_graph

from oracles import path_graph


class TestClusterPartition:
    def test_chain_structure(self):
        graph, clusters = chain_of_cliques(5, 3)
        assert graph.n_vertices == 15
        assert clusters.k == 3
        assert clusters.total_cut_size == 2
        assert clusters.adjacent_cluster_pairs == [(0, 1), (1, 2)]
        assert clusters.quotient_is_connected()
        assert all(clusters.clusters_connected())

    def test_edge_accounting(self):
        graph, clusters = chain_of_cliques(4, 3)
        internal = sum(
            len(clusters.internal_edge_ids(c)) for c in range(clusters.k)
        )
        assert internal + clusters.total_cut_size == graph.n_edges

    def test_cut_edge_ids_symmetric_and_empty(self):
        graph, clusters = chain_of_cliques(4, 3)
        assert np.array_equal(
            clusters.cut_edge_ids(0, 1), clusters.cut_edge_ids(1, 0)
        )
        assert len(clusters.cut_edge_ids(0, 2)) == 0
        with pytest.raises(PartitionError):
            clusters.cut_edge_ids(0, 0)

    def test_label_validation(self):
        graph = complete_graph(4)
        with pytest.raises(PartitionError, match="length"):
            ClusterPartition(graph, [0, 1])
        with pytest.raises(PartitionError, match="at least two"):
            ClusterPartition(graph, [0, 0, 0, 0])
        with pytest.raises(PartitionError, match="0..k-1"):
            ClusterPartition(graph, [0, 2, 2, 0])

    def test_require_connected_clusters(self):
        # Path 0-1-2-3 with clusters {0,3} and {1,2}: first is disconnected.
        clusters = ClusterPartition(path_graph(4), [0, 1, 1, 0])
        with pytest.raises(PartitionError, match="not internally connected"):
            clusters.require_connected_clusters()

    def test_members_and_sizes(self):
        _, clusters = chain_of_cliques(4, 2)
        assert clusters.members(0).tolist() == [0, 1, 2, 3]
        assert clusters.cluster_size(1) == 4
        with pytest.raises(PartitionError):
            clusters.members(5)


class TestSpectralClusters:
    def test_recovers_planted_chain(self):
        graph, planted = chain_of_cliques(8, 3)
        detected = spectral_clusters(graph, 3)
        # Same partition up to label order: compare as sets of frozensets.
        planted_sets = {
            frozenset(planted.members(c).tolist()) for c in range(3)
        }
        detected_sets = {
            frozenset(detected.members(c).tolist()) for c in range(3)
        }
        assert planted_sets == detected_sets

    def test_k_validation(self):
        graph, _ = chain_of_cliques(4, 2)
        with pytest.raises(PartitionError):
            spectral_clusters(graph, 1)
        with pytest.raises(PartitionError):
            spectral_clusters(graph, 99)


class TestMultiCutGossip:
    def test_designated_edges_one_per_cut(self):
        _, clusters = chain_of_cliques(6, 4)
        algo = MultiCutGossip(clusters, epoch_lengths=2)
        assert len(algo.designated_edges) == 3

    def test_internal_edges_average(self):
        graph, clusters = chain_of_cliques(4, 2)
        algo = MultiCutGossip(clusters, epoch_lengths=1)
        algo.setup(graph, np.zeros(8), np.random.default_rng(0))
        values = [float(i) for i in range(8)]
        internal = int(clusters.internal_edge_ids(0)[0])
        u, v = graph.edge_endpoints(internal)
        expected = 0.5 * (values[u] + values[v])
        result = algo.on_tick(internal, u, v, 1.0, 1, values)
        assert result == (expected, expected)

    def test_swap_equalizes_pair_means(self):
        graph, clusters = chain_of_cliques(5, 2)
        algo = MultiCutGossip(clusters, epoch_lengths=1)
        algo.setup(graph, np.zeros(10), np.random.default_rng(0))
        values = np.where(clusters.labels == 0, 3.0, -3.0).astype(float).tolist()
        edge = algo.designated_edges[0]
        u, v = graph.edge_endpoints(edge)
        result = algo.on_tick(edge, u, v, 1.0, 1, values)
        values[u], values[v] = result
        array = np.asarray(values)
        mu0 = array[clusters.members(0)].mean()
        mu1 = array[clusters.members(1)].mean()
        assert mu0 == pytest.approx(mu1)
        assert algo.swap_count(edge) == 1

    def test_swap_respects_per_cut_epoch(self):
        graph, clusters = chain_of_cliques(4, 2)
        algo = MultiCutGossip(clusters, epoch_lengths={(0, 1): 3})
        algo.setup(graph, np.zeros(8), np.random.default_rng(0))
        values = np.where(clusters.labels == 0, 1.0, -1.0).astype(float).tolist()
        edge = algo.designated_edges[0]
        u, v = graph.edge_endpoints(edge)
        assert algo.on_tick(edge, u, v, 1.0, 1, values) is None
        assert algo.on_tick(edge, u, v, 2.0, 2, values) is None
        assert algo.on_tick(edge, u, v, 3.0, 3, values) is not None

    def test_validation(self):
        graph, clusters = chain_of_cliques(4, 3)
        with pytest.raises(AlgorithmError, match="missing epoch"):
            MultiCutGossip(clusters, epoch_lengths={(0, 1): 2})
        with pytest.raises(AlgorithmError, match=">= 1"):
            MultiCutGossip(clusters, epoch_lengths=0)
        with pytest.raises(AlgorithmError, match="not a designated"):
            algo = MultiCutGossip(clusters, epoch_lengths=1)
            algo.swap_count(9999)

    def test_disconnected_quotient_rejected(self):
        # Two cliques with NO bridge: quotient disconnected.
        import itertools

        edges = list(itertools.combinations(range(4), 2))
        edges += [(a + 4, b + 4) for a, b in itertools.combinations(range(4), 2)]
        graph = Graph(8, edges)
        clusters = ClusterPartition(graph, [0, 0, 0, 0, 1, 1, 1, 1])
        with pytest.raises(AlgorithmError, match="disconnected"):
            MultiCutGossip(clusters, epoch_lengths=1)


class TestMultiClusterAveraging:
    def test_end_to_end_convergence(self):
        graph, clusters = chain_of_cliques(8, 3)
        mca = MultiClusterAveraging(graph, clusters=clusters)
        x0 = np.where(clusters.labels == 0, 2.0, -1.0)
        result = mca.run(x0, seed=0, target_ratio=1e-8, max_time=20_000.0)
        assert result.stopped_by == "target_ratio"
        assert np.allclose(result.values, x0.mean(), atol=1e-3)
        assert result.sum_drift < 1e-8

    def test_auto_detection_path(self):
        graph, _ = chain_of_cliques(8, 3)
        mca = MultiClusterAveraging(graph, n_clusters=3)
        assert mca.clusters.k == 3
        assert len(mca.epoch_lengths()) == 2

    def test_summary(self):
        graph, clusters = chain_of_cliques(6, 3)
        mca = MultiClusterAveraging(graph, clusters=clusters)
        summary = mca.summary()
        assert summary["k"] == 3
        assert summary["total_cut_size"] == 2
        assert len(summary["tvan"]) == 3

    def test_validation(self):
        graph, clusters = chain_of_cliques(4, 2)
        with pytest.raises(AlgorithmError, match="provide either"):
            MultiClusterAveraging(graph)
        with pytest.raises(AlgorithmError, match="epoch_constant"):
            MultiClusterAveraging(graph, clusters=clusters, epoch_constant=0)
        other_graph, other_clusters = chain_of_cliques(5, 2)
        with pytest.raises(AlgorithmError, match="different graph"):
            MultiClusterAveraging(graph, clusters=other_clusters)
