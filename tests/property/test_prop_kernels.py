"""Property-based equivalence of the scalar and vectorized kernels.

Randomized workloads, seeds, convexity parameters, thresholds and stop
budgets — under all of them the vectorized replicate-batch kernel must
reproduce the scalar event loop's results **bit-identically**, because
kernel choice is a scheduling decision with no modeling content.  These
properties complement the example-based suite in
``tests/unit/test_kernels.py`` by searching the configuration space
instead of enumerating it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.backends import AlgorithmFactory
from repro.engine.results import results_identical
from repro.engine.runner import MonteCarloRunner
from repro.graphs.topologies import complete_graph

from oracles import cycle_graph


class FixedWorkload:
    """Deterministic length-8 workload from a hypothesis-drawn list."""

    def __init__(self, values) -> None:
        self.values = [float(v) for v in values]

    def __call__(self, rng: np.random.Generator):
        return list(self.values)


values_8 = st.lists(
    st.floats(-1000.0, 1000.0, allow_nan=False, allow_infinity=False),
    min_size=8,
    max_size=8,
)


def kernels_agree(
    graph, factory, workload, seed, n_replicates, clock=None, **run_kwargs
):
    scalar = MonteCarloRunner(
        graph, factory, workload, seed=seed, clock_factory=clock, kernel="scalar"
    ).run(n_replicates, **run_kwargs)
    vector = MonteCarloRunner(
        graph, factory, workload, seed=seed, clock_factory=clock, kernel="vectorized"
    ).run(n_replicates, **run_kwargs)
    assert len(scalar) == len(vector)
    for a, b in zip(scalar, vector):
        assert results_identical(a, b)


class TestKernelEquivalence:
    @given(values_8, st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_vanilla_event_budget(self, initial, seed):
        from repro.algorithms.vanilla import VanillaGossip

        kernels_agree(
            complete_graph(8),
            VanillaGossip,
            FixedWorkload(initial),
            seed,
            5,
            max_events=400,
        )

    @given(
        values_8,
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_convex_alpha_sweep(self, initial, seed, alpha):
        from repro.algorithms.convex import ConvexGossip

        kernels_agree(
            cycle_graph(8),
            AlgorithmFactory(ConvexGossip, alpha=alpha),
            FixedWorkload(initial),
            seed,
            5,
            max_events=300,
            thresholds=(0.5, 0.05),
        )

    @given(
        st.integers(0, 2**31 - 1),
        st.floats(0.0, 0.5),
        st.floats(0.5, 1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_convex_weights(self, seed, low, high):
        from repro.algorithms.convex import RandomConvexGossip

        graph = complete_graph(8)

        def workload(rng):
            return rng.normal(size=8)

        kernels_agree(
            graph,
            AlgorithmFactory(RandomConvexGossip, low=low, high=high),
            workload,
            seed,
            5,
            max_events=300,
        )

    @given(values_8, st.integers(0, 2**31 - 1), st.floats(1e-4, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_target_ratio_stop(self, initial, seed, target):
        from repro.algorithms.vanilla import VanillaGossip

        kernels_agree(
            complete_graph(8),
            VanillaGossip,
            FixedWorkload(initial),
            seed,
            5,
            target_ratio=target,
            max_events=5_000,
        )


class TestGeneralizedLoopEquivalence:
    """The epoch-aware / wrapped-clock lockstep loop, searched randomly:
    Algorithm A's swap schedule and the lossy/failing tick masks must
    stay bit-identical to the scalar oracle at every drawn configuration.
    """

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 6),
        st.one_of(
            st.just("exact"),
            st.just("paper"),
            st.floats(0.5, 8.0, allow_nan=False),
        ),
        st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_nonconvex_swap_schedule(self, seed, epoch_length, gain, oracle):
        from repro.algorithms.nonconvex import NonConvexSparseCutGossip
        from repro.graphs.composites import dumbbell_graph

        pair = dumbbell_graph(6)
        n = pair.graph.n_vertices

        def workload(rng):
            return rng.normal(size=n)

        kernels_agree(
            pair.graph,
            AlgorithmFactory(
                NonConvexSparseCutGossip,
                pair.partition,
                epoch_length=epoch_length,
                gain=gain,
                oracle_means=oracle,
            ),
            workload,
            seed,
            5,
            max_events=2_000,
            target_ratio=1e-4,
            thresholds=(0.5, np.e**-2),
        )

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.9))
    @settings(max_examples=10, deadline=None)
    def test_lossy_clock_mask(self, seed, drop):
        from repro.algorithms.vanilla import VanillaGossip
        from repro.clocks.unreliable import LossyPoissonClockFactory

        graph = complete_graph(8)

        def workload(rng):
            return rng.normal(size=8)

        kernels_agree(
            graph,
            VanillaGossip,
            workload,
            seed,
            5,
            clock=LossyPoissonClockFactory(graph.n_edges, drop),
            max_events=1_500,
            target_ratio=1e-4,
        )

    @given(st.integers(0, 2**31 - 1), st.floats(0.2, 5.0))
    @settings(max_examples=10, deadline=None)
    def test_failing_clock_mask(self, seed, rate):
        from repro.algorithms.nonconvex import NonConvexSparseCutGossip
        from repro.clocks.unreliable import FailingPoissonClockFactory
        from repro.graphs.composites import dumbbell_graph

        pair = dumbbell_graph(6)
        n = pair.graph.n_vertices

        def workload(rng):
            return rng.normal(size=n)

        kernels_agree(
            pair.graph,
            AlgorithmFactory(
                NonConvexSparseCutGossip, pair.partition, epoch_length=2
            ),
            workload,
            seed,
            5,
            clock=FailingPoissonClockFactory(pair.graph.n_edges, rate),
            max_events=8_000,
            target_ratio=1e-5,
        )
