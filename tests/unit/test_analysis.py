"""Unit tests for the analysis layer (potentials, operators, walks, bounds)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.bounds import (
    dumbbell_predictions,
    theorem1_lower_bound,
    theorem2_upper_bound,
)
from repro.analysis.dominance import couple_with_dominating_walk, dominance_violations
from repro.analysis.epoch_trace import epoch_potential_trace
from repro.analysis.operators import operator_norm, sample_epoch_operators
from repro.analysis.potential import decompose
from repro.analysis.random_walk import (
    dominating_walk_paths,
    settling_time_estimate,
    simple_random_walk_paths,
    tail_probability_estimate,
    theorem3_tail_bound,
    time_to_stay_below,
)
from repro.errors import AnalysisError
from repro.graphs.composites import two_cliques
from repro.graphs.topologies import complete_graph

from oracles import (
    empirical_cdf,
    exact_algebraic_connectivity,
    expected_update_matrix,
    expected_variance_decay_rate,
    imbalance_probe,
    log_norm_walk,
    sigma_probe,
    stochastically_dominates,
    vanilla_variance_halving_time,
)


class TestPotential:
    def test_exact_identity(self, medium_dumbbell, rng):
        values = rng.normal(size=32)
        result = decompose(values, medium_dumbbell.partition)
        assert result.variance == pytest.approx(
            result.sigma**2 + result.imbalance, rel=1e-9
        )

    def test_paper_mu_upper_bounds_variance(self, medium_dumbbell, rng):
        values = rng.normal(size=32)
        result = decompose(values, medium_dumbbell.partition)
        assert result.paper_upper_bound >= result.variance - 1e-12

    def test_piecewise_constant_has_zero_sigma(self, medium_dumbbell):
        partition = medium_dumbbell.partition
        values = np.where(partition.side == 0, 3.0, -1.0)
        result = decompose(values, partition)
        assert result.sigma == pytest.approx(0.0, abs=1e-12)
        assert result.mu1 == pytest.approx(3.0)
        assert result.mu2 == pytest.approx(-1.0)

    def test_uniform_vector_all_zero(self, medium_dumbbell):
        result = decompose(np.full(32, 2.5), medium_dumbbell.partition)
        assert result.variance == pytest.approx(0.0, abs=1e-12)
        assert result.paper_mu == pytest.approx(0.0, abs=1e-12)

    def test_shape_validated(self, medium_dumbbell):
        with pytest.raises(ValueError):
            decompose(np.zeros(5), medium_dumbbell.partition)

    def test_probes(self, medium_dumbbell, rng):
        values = rng.normal(size=32)
        partition = medium_dumbbell.partition
        assert sigma_probe(partition)(values) == pytest.approx(
            decompose(values, partition).sigma
        )
        assert imbalance_probe(partition)(values) == pytest.approx(
            decompose(values, partition).paper_mu
        )

    def test_to_dict(self, medium_dumbbell, rng):
        info = decompose(rng.normal(size=32), medium_dumbbell.partition).to_dict()
        assert set(info) >= {"mu1", "mu2", "sigma", "variance"}


class TestOperators:
    def test_expected_update_matrix_stochastic(self, k6):
        matrix = expected_update_matrix(k6)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.allclose(matrix, matrix.T)

    def test_operator_norm_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0)
        # Restricted to zero-mean subspace the all-ones projector is 0.
        assert operator_norm(np.full((4, 4), 0.25),
                             zero_mean_subspace=True) == pytest.approx(0.0, abs=1e-12)

    def test_operator_norm_validation(self):
        with pytest.raises(AnalysisError):
            operator_norm(np.zeros((2, 3)))

    def test_sampled_operators_fix_constants(self, small_dumbbell):
        samples = sample_epoch_operators(
            small_dumbbell.partition, epoch_length=2, n_epochs=3, seed=0
        )
        assert len(samples) == 3
        ones = np.ones(16)
        for sample in samples:
            assert np.allclose(sample.matrix @ ones, ones)
            assert sample.norm <= 16 + 1e-9  # Eq. 12
            assert sample.n_ticks > 0
            assert sample.duration > 0

    def test_operator_matches_simulation_on_state(self, small_dumbbell, rng):
        """The materialized A_k must act like the actual update sequence."""
        from repro.algorithms.nonconvex import NonConvexSparseCutGossip
        from repro.clocks.poisson import PoissonEdgeClocks

        partition = small_dumbbell.partition
        graph = small_dumbbell.graph
        epoch_length = 2
        # Sample the operator with a fixed clock seed...
        samples = sample_epoch_operators(
            partition, epoch_length=epoch_length, n_epochs=1, seed=99
        )
        # ...then replay the identical tick sequence on a concrete vector.
        algorithm = NonConvexSparseCutGossip(partition, epoch_length=epoch_length)
        clocks = PoissonEdgeClocks(graph.n_edges, seed=99)
        x = rng.normal(size=16)
        expected = samples[0].matrix @ x
        values = x.tolist()
        ticks = np.zeros(graph.n_edges, dtype=int)
        algorithm.setup(graph, x, rng)
        done = False
        while not done:
            # Match sample_epoch_operators' batch size: the Poisson process
            # draws gaps and edges per batch, so batching is part of the
            # stream's draw order.
            times, edges = clocks.next_batch(4096)
            for t, e in zip(times.tolist(), edges.tolist()):
                ticks[e] += 1
                u, v = graph.edge_endpoints(e)
                result = algorithm.on_tick(e, u, v, t, int(ticks[e]), values)
                if result is not None:
                    values[u], values[v] = result
                if algorithm.swap_count == 1:
                    done = True
                    break
        assert np.allclose(values, expected, atol=1e-9)

    def test_log_norm_walk_shape(self, small_dumbbell):
        samples = sample_epoch_operators(
            small_dumbbell.partition, epoch_length=1, n_epochs=4, seed=1
        )
        walk = log_norm_walk(samples)
        assert walk.shape == (5,)
        assert walk[0] == 0.0

    def test_sample_validation(self, small_dumbbell):
        with pytest.raises(AnalysisError):
            sample_epoch_operators(
                small_dumbbell.partition, epoch_length=1, n_epochs=0
            )


class TestRandomWalks:
    def test_simple_walk_shape_and_parity(self):
        paths = simple_random_walk_paths(10, 50, seed=0)
        assert paths.shape == (50, 11)
        assert np.all(paths[:, 0] == 0)
        # After k steps the walk has the parity of k.
        assert np.all((paths[:, 10] + 10) % 2 == 0)

    def test_theorem3_bound_monotone(self):
        assert theorem3_tail_bound(1.0) > theorem3_tail_bound(2.0)
        with pytest.raises(AnalysisError):
            theorem3_tail_bound(-1.0)

    def test_tail_estimate_below_hoeffding(self):
        for s in (1.0, 2.0):
            mc = tail_probability_estimate(100, s, n_paths=4000, seed=1)
            assert mc <= math.exp(-s * s / 2.0) + 0.03

    def test_dominating_walk_drift(self):
        paths = dominating_walk_paths(400, 64, n_paths=400, seed=2)
        # Mean increment is -(1/4) log n (see docstring).
        empirical_drift = paths[:, -1].mean() / 400
        assert empirical_drift == pytest.approx(-0.25 * math.log(64), rel=0.15)

    def test_time_to_stay_below(self):
        path = np.array([[0.0, -3.0, -1.0, -3.0, -4.0, -5.0]])
        assert time_to_stay_below(path, -2.0).tolist() == [2]
        always_below = np.array([[0.0, -3.0, -4.0]])
        assert time_to_stay_below(always_below, -2.0).tolist() == [0]

    def test_settling_time_positive_and_bounded(self):
        t0 = settling_time_estimate(64, n_paths=500, seed=3)
        assert 0 <= t0 <= 64

    def test_validation(self):
        with pytest.raises(AnalysisError):
            simple_random_walk_paths(0, 5)
        with pytest.raises(AnalysisError):
            dominating_walk_paths(5, 1)
        with pytest.raises(AnalysisError):
            settling_time_estimate(16, confidence=1.5)


class TestDominance:
    def test_empirical_cdf(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0])
        assert cdf(0.5) == 0.0
        assert cdf(2.0) == pytest.approx(2 / 3)
        assert cdf(10.0) == 1.0
        with pytest.raises(AnalysisError):
            empirical_cdf([])

    def test_stochastic_dominance_detects_shift(self, rng):
        lower = rng.normal(0.0, 1.0, size=500)
        upper = lower + 2.0
        assert stochastically_dominates(upper, lower)
        assert not stochastically_dominates(lower, upper, tolerance=0.1)

    def test_coupling_dominates_for_compliant_increments(self):
        # Increments satisfying the premises: all <= log n, at least half
        # below -(3/2) log n.
        n = 16
        increments = [-10.0, -9.0, -8.0, 1.0, 0.5, -7.5]
        walk, dominating = couple_with_dominating_walk(increments, n, seed=0)
        assert dominance_violations(walk, dominating) == 0

    def test_coupling_flags_violating_increments(self):
        n = 16
        # An increment far above +log n cannot be dominated.
        increments = [50.0, -1.0]
        walk, dominating = couple_with_dominating_walk(increments, n, seed=0)
        assert dominance_violations(walk, dominating) > 0

    def test_coupling_validation(self):
        with pytest.raises(AnalysisError):
            couple_with_dominating_walk([], 16)
        with pytest.raises(AnalysisError):
            couple_with_dominating_walk([1.0], 1)
        with pytest.raises(AnalysisError):
            dominance_violations(np.zeros(3), np.zeros(4))


class TestBounds:
    def test_theorem1_formula(self, medium_dumbbell):
        bound = theorem1_lower_bound(medium_dumbbell.partition)
        assert bound == pytest.approx((1 - 1 / math.e) ** 2 / 4 * 16)

    def test_theorem1_scales_with_cut(self):
        narrow = two_cliques(8, 8, n_bridges=1).partition
        wide = two_cliques(8, 8, n_bridges=4).partition
        assert theorem1_lower_bound(narrow) == pytest.approx(
            4 * theorem1_lower_bound(wide)
        )

    def test_theorem2_formula(self, medium_dumbbell):
        bound = theorem2_upper_bound(medium_dumbbell.partition, constant=3.0)
        assert bound == pytest.approx(3.0 * math.log(32) * 0.5)

    def test_dumbbell_predictions(self):
        info = dumbbell_predictions(64)
        assert info["convex_lower_bound"] == pytest.approx(
            (1 - 1 / math.e) ** 2 / 4 * 32
        )
        # The theorem constants only separate asymptotically: the
        # guaranteed speedup crosses 1 between n=64 and n=256 and grows.
        large = dumbbell_predictions(256)
        assert large["predicted_speedup_at_least"] > 1.0
        assert (
            large["predicted_speedup_at_least"]
            > info["predicted_speedup_at_least"]
        )
        with pytest.raises(AnalysisError):
            dumbbell_predictions(7)

    def test_bound_validation(self, medium_dumbbell):
        with pytest.raises(AnalysisError):
            theorem2_upper_bound(medium_dumbbell.partition, constant=0)


class TestTheory:
    def test_exact_connectivities(self):
        assert exact_algebraic_connectivity("complete", 9) == 9.0
        assert exact_algebraic_connectivity("star", 5) == 1.0
        with pytest.raises(AnalysisError):
            exact_algebraic_connectivity("moebius", 5)

    def test_decay_rate_dirichlet(self, k6):
        x = np.arange(6, dtype=float)
        from repro.graphs.spectral import laplacian_matrix

        expected = 0.5 * float(x @ laplacian_matrix(k6) @ x)
        assert expected_variance_decay_rate(k6, x) == pytest.approx(expected)
        assert expected_variance_decay_rate(k6, np.ones(6)) == pytest.approx(0.0)

    def test_halving_time(self):
        assert vanilla_variance_halving_time(complete_graph(8)) == pytest.approx(
            2 * math.log(2) / 8
        )


class TestEpochTrace:
    def test_records_have_consistent_potentials(self, small_dumbbell, rng):
        partition = small_dumbbell.partition
        x0 = rng.normal(size=16)
        x0 -= x0.mean()
        records = epoch_potential_trace(
            partition, x0, epoch_length=2, n_epochs=2, seed=0
        )
        assert len(records) == 2
        first = records[0]
        assert first.sigma_start == pytest.approx(
            decompose(x0, partition).sigma
        )
        assert first.duration > 0
        # Epoch chaining: end of epoch 1 = start of epoch 2.
        assert records[1].sigma_start == pytest.approx(first.sigma_end)
        assert records[1].variance_start == pytest.approx(first.variance_end)

    def test_mixing_contracts_sigma_within_epoch(self, medium_dumbbell, rng):
        x0 = rng.normal(size=32)
        x0 -= x0.mean()
        records = epoch_potential_trace(
            medium_dumbbell.partition, x0, epoch_length=6, n_epochs=1, seed=1
        )
        record = records[0]
        assert record.sigma_pre_swap < record.sigma_start
        assert record.sigma_contraction < 1.0

    def test_validation(self, small_dumbbell):
        with pytest.raises(AnalysisError):
            epoch_potential_trace(
                small_dumbbell.partition, np.zeros(16), epoch_length=1,
                n_epochs=0,
            )
        with pytest.raises(AnalysisError):
            epoch_potential_trace(
                small_dumbbell.partition, np.zeros(5), epoch_length=1,
                n_epochs=1,
            )
