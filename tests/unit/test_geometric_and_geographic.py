"""Unit tests for geometric networks, routing, and geographic gossip."""

from __future__ import annotations


import numpy as np
import pytest

from repro.algorithms.geographic import GeographicGossip
from repro.engine.simulator import simulate
from repro.errors import AlgorithmError, GraphError
from repro.graphs.geometric import GeometricNetwork, random_geometric_network
from repro.graphs.graph import Graph


def line_network() -> GeometricNetwork:
    """Five nodes on a line, consecutive edges only."""
    graph = Graph(5, [(i, i + 1) for i in range(4)])
    positions = np.array([[0.1 * i, 0.5] for i in range(5)])
    return GeometricNetwork(graph=graph, positions=positions)


class TestGeometricNetwork:
    def test_position_shape_validated(self):
        with pytest.raises(GraphError, match="positions"):
            GeometricNetwork(graph=Graph(3, [(0, 1)]), positions=np.zeros((2, 2)))

    def test_distance(self):
        network = line_network()
        assert network.distance(0, 4) == pytest.approx(0.4)

    def test_greedy_route_follows_line(self):
        network = line_network()
        assert network.greedy_route(0, 4) == [0, 1, 2, 3, 4]
        assert network.greedy_route(4, 1) == [4, 3, 2, 1]
        assert network.greedy_route(2, 2) == [2]

    def test_greedy_route_detects_void(self):
        # A disconnected far node: routing toward it stalls immediately.
        graph = Graph(4, [(0, 1), (1, 2)])
        positions = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.9, 0.9]])
        network = GeometricNetwork(graph=graph, positions=positions)
        assert network.greedy_route(0, 3) is None

    def test_route_endpoint_validation(self):
        with pytest.raises(GraphError):
            line_network().greedy_route(0, 99)

    def test_random_network_connected_and_sized(self):
        network = random_geometric_network(60, seed=1)
        assert network.graph.n_vertices == 60
        assert network.graph.is_connected()
        assert network.positions.shape == (60, 2)
        assert network.positions.min() >= 0 and network.positions.max() <= 1

    def test_random_network_radius_validation(self):
        with pytest.raises(GraphError):
            random_geometric_network(10, radius=-0.1)
        with pytest.raises(GraphError):
            random_geometric_network(1)

    def test_routes_succeed_on_dense_network(self):
        network = random_geometric_network(80, seed=2)
        rng = np.random.default_rng(0)
        successes = 0
        for _ in range(50):
            s, t = rng.integers(80, size=2)
            if network.greedy_route(int(s), int(t)) is not None:
                successes += 1
        assert successes >= 45  # voids must be rare above the threshold


class TestGeographicGossip:
    def test_local_mode_is_vanilla(self):
        network = line_network()
        algo = GeographicGossip(network, initiation_probability=0.0)
        algo.setup(network.graph, np.zeros(5), np.random.default_rng(0))
        values = [4.0, 0.0, 0.0, 0.0, 0.0]
        result = algo.on_tick(0, 0, 1, 1.0, 1, values)
        assert result == (2.0, 2.0)
        assert algo.message_count == 1

    def test_long_range_exchange_updates_remote_pair(self):
        network = line_network()
        algo = GeographicGossip(network, initiation_probability=1.0)
        rng = np.random.default_rng(5)
        algo.setup(network.graph, np.zeros(5), rng)
        values = [10.0, 0.0, 0.0, 0.0, -10.0]
        # Repeat ticks of the first edge until a non-trivial exchange hits
        # a remote target (randomized initiator/target).
        for count in range(1, 60):
            result = algo.on_tick(0, 0, 1, float(count), count, values)
            if isinstance(result, list):
                for vertex, value in result:
                    values[vertex] = value
                break
        assert isinstance(result, list)
        assert algo.long_range_exchanges == 1
        assert algo.message_count > 1
        assert sum(values) == pytest.approx(0.0, abs=1e-9)

    def test_conserves_sum_in_simulation(self):
        network = random_geometric_network(40, seed=4)
        x0 = np.arange(40, dtype=float)
        algo = GeographicGossip(network, initiation_probability=0.5)
        result = simulate(network.graph, algo, x0, seed=1,
                          target_ratio=1e-8, max_events=2_000_000)
        assert result.stopped_by == "target_ratio"
        assert result.sum_drift < 1e-6
        assert np.allclose(result.values, x0.mean(), atol=3e-2)

    def test_wrong_graph_rejected(self):
        network = line_network()
        algo = GeographicGossip(network)
        with pytest.raises(AlgorithmError, match="different network"):
            algo.setup(Graph(3, [(0, 1)]), np.zeros(3), np.random.default_rng(0))

    def test_probability_validated(self):
        with pytest.raises(AlgorithmError):
            GeographicGossip(line_network(), initiation_probability=1.5)

    def test_describe_counts(self):
        algo = GeographicGossip(line_network(), initiation_probability=0.2)
        info = algo.describe()
        assert info["initiation_probability"] == 0.2
        assert info["message_count"] == 0
