"""Property-based tests for the analysis layer."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dominance import couple_with_dominating_walk, dominance_violations
from repro.analysis.potential import decompose
from repro.analysis.random_walk import dominating_walk_paths, time_to_stay_below
from repro.graphs.composites import two_cliques
from repro.util.serialization import to_jsonable

from oracles import stochastically_dominates


@st.composite
def partitioned_values(draw):
    n1 = draw(st.integers(2, 6))
    n2 = draw(st.integers(n1, 8))
    pair = two_cliques(n1, n2, n_bridges=1)
    n = pair.graph.n_vertices
    values = draw(
        st.lists(
            st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return pair.partition, np.asarray(values)


class TestPotentialProperties:
    @given(partitioned_values())
    def test_decomposition_identity(self, case):
        partition, values = case
        result = decompose(values, partition)
        assert result.variance == np.var(values)
        scale = max(1.0, result.variance)
        assert abs(result.variance - (result.sigma**2 + result.imbalance)) \
            <= 1e-9 * scale

    @given(partitioned_values())
    def test_paper_mu_envelope(self, case):
        partition, values = case
        result = decompose(values, partition)
        assert result.paper_upper_bound >= result.variance - 1e-9 * max(
            1.0, result.variance
        )

    @given(partitioned_values(), st.floats(-50.0, 50.0, allow_nan=False))
    def test_translation_invariance(self, case, shift):
        partition, values = case
        base = decompose(values, partition)
        shifted = decompose(values + shift, partition)
        scale = max(1.0, abs(base.variance))
        assert abs(base.variance - shifted.variance) <= 1e-6 * scale
        assert abs(base.sigma - shifted.sigma) <= 1e-6 * max(1.0, base.sigma)
        assert abs(base.paper_mu - shifted.paper_mu) <= 1e-6 * max(
            1.0, base.paper_mu
        )


class TestDominanceProperties:
    @given(
        st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=5, max_size=50),
        st.floats(0.1, 10.0),
    )
    def test_shifted_samples_dominate(self, samples, shift):
        assert stochastically_dominates(
            [s + shift for s in samples], samples
        )

    @given(st.integers(4, 256), st.integers(1, 40), st.data())
    @settings(max_examples=40)
    def test_coupling_dominates_whenever_premises_hold(self, n, k, data):
        log_n = math.log(n)
        # Draw increments satisfying the paper's premises: all <= log n,
        # and (by construction) at least half in the deep-down region.
        n_low = k // 2 + k % 2
        low = data.draw(
            st.lists(
                st.floats(-20.0 * log_n, -1.5 * log_n, allow_nan=False),
                min_size=n_low, max_size=n_low,
            )
        )
        high = data.draw(
            st.lists(
                st.floats(-1.5 * log_n, 1.0 * log_n, allow_nan=False),
                min_size=k - n_low, max_size=k - n_low,
            )
        )
        increments = low + high
        walk, dominating = couple_with_dominating_walk(increments, n)
        assert dominance_violations(walk, dominating) == 0

    @given(st.integers(2, 1024), st.integers(0, 2**31 - 1))
    @settings(max_examples=30)
    def test_dominating_walk_settles(self, n, seed):
        paths = dominating_walk_paths(300, max(n, 2), n_paths=20, seed=seed)
        times = time_to_stay_below(paths, -2.0)
        assert np.all(times >= 0)
        assert np.all(times <= 300)


class TestSerializationProperties:
    @given(
        st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(-(2**40), 2**40),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=20),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=20,
        )
    )
    def test_jsonable_roundtrips_through_json(self, value):
        import json

        payload = to_jsonable(value)
        assert json.loads(json.dumps(payload)) == payload
