"""Property-based tests for the extension subsystems."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.poisson import PoissonEdgeClocks
from repro.clocks.unreliable import FailingEdgeClocks, LossyClocks
from repro.core.multi_cut import MultiCutGossip
from repro.engine.simulator import simulate
from repro.graphs.clustering import chain_of_cliques
from repro.graphs.geometric import GeometricNetwork
from repro.graphs.graph import Graph
from repro.graphs.topologies import complete_graph

from oracles import greedy_route


class TestGeneralUpdatePath:
    """The engine's list-of-(vertex, value) update path must keep exact stats."""

    @given(
        st.lists(
            st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
            min_size=6, max_size=6,
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25)
    def test_remote_pair_averaging_matches_numpy(self, initial, seed):
        assume(float(np.var(initial)) > 1e-9)

        class RemotePairAverager(VanillaGossip):
            """Averages a pseudo-random non-adjacent pair on every tick."""

            name = "remote-pair"
            monotone_variance = True

            def on_tick(self, edge_id, u, v, time, tick_count, values):
                a = (u + 2) % 6
                b = (v + 3) % 6
                if a == b:
                    return None
                mean = 0.5 * (values[a] + values[b])
                return [(a, mean), (b, mean)]

        graph = complete_graph(6)
        result = simulate(graph, RemotePairAverager(), initial, seed=seed,
                          max_events=500)
        assert result.variance_final == float(np.var(result.values))
        assert abs(result.sum_final - float(np.sum(initial))) <= 1e-7 * max(
            1.0, abs(float(np.sum(initial)))
        )


@st.composite
def clique_chains(draw):
    clique_size = draw(st.integers(3, 6))
    n_cliques = draw(st.integers(2, 4))
    return chain_of_cliques(clique_size, n_cliques)


class TestMultiCutProperties:
    @given(clique_chains(), st.data())
    @settings(max_examples=25)
    def test_sum_conserved_under_any_tick_sequence(self, chain, data):
        graph, clusters = chain
        n = graph.n_vertices
        initial = data.draw(
            st.lists(
                st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False),
                min_size=n, max_size=n,
            )
        )
        edge_sequence = data.draw(
            st.lists(st.integers(0, graph.n_edges - 1), min_size=1,
                     max_size=60)
        )
        algo = MultiCutGossip(clusters, epoch_lengths=data.draw(
            st.integers(1, 3)
        ))
        algo.setup(graph, np.asarray(initial), np.random.default_rng(0))
        values = list(initial)
        counts = [0] * graph.n_edges
        for i, edge_id in enumerate(edge_sequence):
            counts[edge_id] += 1
            u, v = graph.edge_endpoints(edge_id)
            result = algo.on_tick(edge_id, u, v, float(i + 1),
                                  counts[edge_id], values)
            if result is not None:
                values[u], values[v] = result
        assert abs(sum(values) - sum(initial)) <= 1e-7 * max(
            1.0, abs(sum(initial))
        )

    @given(clique_chains(), st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    @settings(max_examples=25)
    def test_swap_equalizes_the_pair_for_any_values(self, chain, mu_a, mu_b):
        graph, clusters = chain
        algo = MultiCutGossip(clusters, epoch_lengths=1)
        algo.setup(graph, np.zeros(graph.n_vertices), np.random.default_rng(0))
        edge = algo.designated_edges[0]
        u, v = graph.edge_endpoints(edge)
        cluster_u = int(clusters.labels[u])
        cluster_v = int(clusters.labels[v])
        values = np.where(
            clusters.labels == cluster_u, mu_a,
            np.where(clusters.labels == cluster_v, mu_b, 0.0),
        ).astype(float).tolist()
        result = algo.on_tick(edge, u, v, 1.0, 1, values)
        values[u], values[v] = result
        array = np.asarray(values)
        new_a = array[clusters.members(cluster_u)].mean()
        new_b = array[clusters.members(cluster_v)].mean()
        assert abs(new_a - new_b) <= 1e-9 * max(1.0, abs(mu_a), abs(mu_b))


class TestUnreliableClockProperties:
    @given(
        st.integers(2, 20),
        st.floats(0.0, 0.9),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25)
    def test_lossy_preserves_order_and_subset(self, m, p, seed):
        inner = PoissonEdgeClocks(m, seed=seed)
        reference = PoissonEdgeClocks(m, seed=seed)
        ref_times, _ = reference.next_batch(500)
        lossy = LossyClocks(inner, p, seed=seed + 1)
        times, edges = lossy.next_batch(500)
        assert len(times) == len(edges) <= 500
        if len(times) > 1:
            assert np.all(np.diff(times) > 0)
        assert set(times.tolist()) <= set(ref_times.tolist())

    @given(st.integers(2, 20), st.integers(0, 2**31 - 1), st.data())
    @settings(max_examples=25)
    def test_failing_edges_never_tick_after_death(self, m, seed, data):
        deaths = {
            e: data.draw(st.floats(0.0, 5.0))
            for e in data.draw(
                st.lists(st.integers(0, m - 1), unique=True, max_size=m)
            )
        }
        failing = FailingEdgeClocks(PoissonEdgeClocks(m, seed=seed), deaths)
        times, edges = failing.next_batch(2000)
        for t, e in zip(times.tolist(), edges.tolist()):
            assert t < deaths.get(int(e), float("inf"))


class TestGeometricProperties:
    @given(st.integers(2, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_greedy_route_distance_strictly_decreases(self, n, seed):
        rng = np.random.default_rng(seed)
        positions = rng.random((n, 2))
        # Complete geometric graph: routing always reaches the target.
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        network = GeometricNetwork(graph=Graph(n, edges), positions=positions)
        source, target = int(rng.integers(n)), int(rng.integers(n))
        route = greedy_route(network, source, target)
        assert route is not None
        assert route[0] == source and route[-1] == target
        distances = [network.distance(v, target) for v in route]
        assert all(b < a for a, b in zip(distances, distances[1:]))

    @given(
        st.integers(2, 30),
        st.floats(0.5, 2.0),  # radius as a multiple of sqrt(log n / n)
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40)
    def test_hop_count_matches_greedy_route(self, n, multiple, seed):
        # Near the connectivity threshold, so greedy voids occur.
        positions = np.random.default_rng(seed).random((n, 2))
        radius = multiple * np.sqrt(np.log(n) / n)
        assert_hop_counts_match_routes(radius_network(positions, radius))

    @given(
        st.integers(3, 8),
        st.sampled_from([0.13, 0.18, 0.26, 0.36]),  # lattice step is 0.125
        st.integers(0, 2**31 - 1),
        st.data(),
    )
    @settings(max_examples=40)
    def test_hop_count_matches_greedy_route_on_lattice(
        self, side, radius, seed, data
    ):
        # Exact binary lattice coordinates: many neighbors tie on distance,
        # so CSR-order tie-breaking and the strict void test both matter.
        rng = np.random.default_rng(seed)
        cells = np.array([(i, j) for i in range(side) for j in range(side)])
        n = data.draw(st.integers(2, len(cells)))
        positions = 0.125 * cells[rng.permutation(len(cells))[:n]]
        assert_hop_counts_match_routes(radius_network(positions, radius))


def radius_network(positions: np.ndarray, radius: float) -> GeometricNetwork:
    """Points joined below ``radius``; not necessarily connected."""
    deltas = positions[:, None, :] - positions[None, :, :]
    distances = np.sqrt(np.sum(deltas**2, axis=-1))
    us, vs = np.nonzero(np.triu(distances < radius, k=1))
    graph = Graph(len(positions), np.stack([us, vs], axis=1))
    return GeometricNetwork(graph=graph, positions=positions)


def assert_hop_counts_match_routes(network: GeometricNetwork) -> None:
    n = network.graph.n_vertices
    for target in range(n):
        for source in range(n):
            route = greedy_route(network, source, target)
            expected = None if route is None else len(route) - 1
            assert network.hop_count(source, target) == expected, (source, target)
