"""Unit tests for the spectral toolkit, cross-checked against closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError, GraphError
from repro.graphs.graph import Graph
from repro.graphs.spectral import (
    algebraic_connectivity,
    fiedler_vector,
    laplacian_matrix,
    laplacian_spectrum,
    spectral_mixing_time,
)
from repro.graphs.topologies import complete_graph

from oracles import (
    cycle_graph,
    exact_algebraic_connectivity,
    hypercube_graph,
    normalized_laplacian_matrix,
    path_graph,
    spectral_gap,
    star_graph,
)


class TestLaplacian:
    def test_row_sums_zero(self, k6):
        matrix = laplacian_matrix(k6)
        assert np.allclose(matrix.sum(axis=1), 0.0)

    def test_diagonal_is_degrees(self, small_path):
        matrix = laplacian_matrix(small_path)
        assert np.array_equal(np.diag(matrix), small_path.degrees)

    def test_quadratic_form_is_edge_sum(self, c8):
        x = np.arange(8, dtype=float)
        expected = sum(
            (x[u] - x[v]) ** 2 for u, v in c8.edges
        )
        assert x @ laplacian_matrix(c8) @ x == pytest.approx(expected)

    def test_normalized_laplacian_spectrum_range(self, c8):
        values = np.linalg.eigvalsh(normalized_laplacian_matrix(c8))
        assert values.min() == pytest.approx(0.0, abs=1e-9)
        assert values.max() <= 2.0 + 1e-9


class TestSpectrum:
    @pytest.mark.parametrize(
        "family,builder,n",
        [
            ("complete", complete_graph, 9),
            ("path", path_graph, 11),
            ("cycle", cycle_graph, 10),
            ("star", star_graph, 8),
        ],
    )
    def test_algebraic_connectivity_matches_theory(self, family, builder, n):
        graph = builder(n)
        assert algebraic_connectivity(graph) == pytest.approx(
            exact_algebraic_connectivity(family, n), rel=1e-9
        )

    def test_hypercube_connectivity(self):
        graph = hypercube_graph(4)
        assert algebraic_connectivity(graph) == pytest.approx(2.0, rel=1e-9)

    def test_spectrum_sorted_and_sums_to_degree_total(self, k6):
        spectrum = laplacian_spectrum(k6)
        assert np.all(np.diff(spectrum) >= -1e-9)
        assert spectrum.sum() == pytest.approx(float(k6.degrees.sum()))

    def test_disconnected_graph_has_zero_gap(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert algebraic_connectivity(graph) == pytest.approx(0.0, abs=1e-9)

    def test_spectral_gap_alias(self, k6):
        assert spectral_gap(k6) == algebraic_connectivity(k6)

    def test_needs_two_vertices(self):
        with pytest.raises(GraphError):
            algebraic_connectivity(Graph(1, []))


class TestFiedler:
    def test_unit_norm_and_orthogonal_to_ones(self, c8):
        vector = fiedler_vector(c8)
        assert np.linalg.norm(vector) == pytest.approx(1.0)
        assert vector.sum() == pytest.approx(0.0, abs=1e-9)

    def test_eigen_equation(self, small_path):
        vector = fiedler_vector(small_path)
        gap = algebraic_connectivity(small_path)
        residual = laplacian_matrix(small_path) @ vector - gap * vector
        assert np.linalg.norm(residual) < 1e-8

    def test_sign_deterministic(self, c8):
        a = fiedler_vector(c8)
        b = fiedler_vector(c8)
        assert np.array_equal(a, b)

    def test_disconnected_rejected(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            fiedler_vector(graph)

    def test_separates_dumbbell_sides(self, small_dumbbell):
        vector = fiedler_vector(small_dumbbell.graph)
        partition = small_dumbbell.partition
        signs_1 = np.sign(vector[partition.vertices_1])
        signs_2 = np.sign(vector[partition.vertices_2])
        assert len(np.unique(signs_1)) == 1
        assert len(np.unique(signs_2)) == 1
        assert signs_1[0] != signs_2[0]


class TestMixingTime:
    def test_complete_graph_value(self):
        graph = complete_graph(16)
        assert spectral_mixing_time(graph) == pytest.approx(4.0 / 16.0)

    def test_custom_ratio(self):
        graph = complete_graph(16)
        t_half = spectral_mixing_time(graph, variance_ratio=0.5)
        assert t_half == pytest.approx(2.0 * math.log(2.0) / 16.0)

    def test_invalid_ratio(self, k6):
        with pytest.raises(GraphError):
            spectral_mixing_time(k6, variance_ratio=1.5)

    def test_disconnected_infinite(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            spectral_mixing_time(graph)
