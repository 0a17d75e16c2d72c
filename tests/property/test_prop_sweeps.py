"""Property-based tests for sweep grid expansion and seed namespacing.

The sweep scheduler's correctness rests on three structural properties:
the grid expands to exactly the axis product (no dropped or invented
configurations), no two configurations coincide, and the seed namespaces
of different configurations — and of different replicate windows
("rounds") within one configuration — never overlap.  All three are
checked here over randomized grids.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.vanilla import VanillaGossip
from repro.engine.sweeps import (
    PointConfig,
    SweepAxis,
    SweepRunner,
    SweepSpec,
)
from repro.errors import SweepError
from repro.graphs.topologies import complete_graph


def _unused_builder(**params) -> PointConfig:  # pragma: no cover
    raise AssertionError("expand() must not invoke the builder")


# Axis grids: 1-3 axes with distinct names, each 1-4 distinct values.
axes_grids = st.dictionaries(
    keys=st.sampled_from(["n", "width", "algorithm", "family"]),
    values=st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True),
    min_size=1,
    max_size=3,
)


def _make_spec(grid: "dict[str, list[int]]") -> SweepSpec:
    return SweepSpec(
        name="prop",
        axes=tuple(SweepAxis(name, tuple(vals)) for name, vals in grid.items()),
        builder=_unused_builder,
    )


class TestGridExpansion:
    @given(axes_grids)
    @settings(max_examples=60)
    def test_cardinality_is_axis_product(self, grid):
        spec = _make_spec(grid)
        points = spec.expand()
        expected = 1
        for values in grid.values():
            expected *= len(values)
        assert spec.n_points == expected
        assert len(points) == expected
        # Indices are the contiguous enumeration of the product.
        assert [p.index for p in points] == list(range(expected))

    @given(axes_grids)
    @settings(max_examples=60)
    def test_no_duplicate_configurations(self, grid):
        spec = _make_spec(grid)
        points = spec.expand()
        signatures = {frozenset(p.params.items()) for p in points}
        assert len(signatures) == len(points)
        # Every point resolves every axis to one of its declared values.
        for point in points:
            assert set(point.params) == set(grid)
            for name, values in grid.items():
                assert point.params[name] in values

    @given(axes_grids)
    @settings(max_examples=30)
    def test_expansion_is_deterministic(self, grid):
        spec = _make_spec(grid)
        assert spec.expand() == spec.expand()

    @given(st.lists(st.integers(0, 20), min_size=2, max_size=6))
    @settings(max_examples=30)
    def test_duplicate_axis_values_rejected(self, values):
        with pytest.raises(SweepError):
            SweepAxis("n", tuple(values) + (values[0],))

    @given(axes_grids, st.lists(st.integers(100, 200), min_size=1,
                                max_size=4, unique=True))
    @settings(max_examples=30)
    def test_with_axis_replaces_values(self, grid, new_values):
        spec = _make_spec(grid)
        name = next(iter(grid))
        overridden = spec.with_axis(name, new_values)
        axis = {a.name: a for a in overridden.axes}[name]
        assert list(axis.values) == list(new_values)
        assert overridden.n_points == (
            spec.n_points // len(grid[name]) * len(new_values)
        )


def _trivial_builder(**params) -> PointConfig:
    graph = complete_graph(4)
    return PointConfig(
        graph=graph,
        algorithm_factory=VanillaGossip,
        initial_values=[0.0, 1.0, 2.0, 3.0],
        max_events=8,
    )


class TestSeedNamespaces:
    @given(
        st.integers(1, 5),          # configurations
        st.integers(0, 2**31 - 1),  # sweep root seed
        st.lists(st.integers(1, 4), min_size=1, max_size=3),  # round sizes
    )
    @settings(max_examples=40)
    def test_streams_disjoint_across_points_and_rounds(
        self, n_points, seed, round_sizes
    ):
        """Replicate spawn-keys never collide between configurations or
        between successive replicate windows of one configuration."""
        spec = SweepSpec(
            name="prop",
            axes=(SweepAxis("p", tuple(range(n_points))),),
            builder=_trivial_builder,
        )
        runner = SweepRunner(spec, seed=seed)
        seen: "set[tuple]" = set()
        for point in spec.expand():
            state = runner._prepare_state(point)
            start = 0
            for size in round_sizes:
                for spec_ in state.runner.build_specs(size, start=start):
                    key = spec_.seed_sequence.spawn_key
                    assert key not in seen
                    seen.add(key)
                start += size
        expected = n_points * sum(round_sizes)
        assert len(seen) == expected

    @given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40)
    def test_round_windows_tile_the_full_sequence(self, seed, k1, k2):
        """build_specs(k, start=s) windows reproduce one big window's
        streams exactly — growing a point in rounds changes nothing."""
        from repro.engine.runner import MonteCarloRunner

        runner = MonteCarloRunner(
            complete_graph(4), VanillaGossip, [0.0, 1.0, 2.0, 3.0], seed=seed
        )
        whole = runner.build_specs(k1 + k2, max_events=8)
        first = runner.build_specs(k1, max_events=8)
        second = runner.build_specs(k2, start=k1, max_events=8)
        tiled = first + second
        assert [s.index for s in tiled] == [s.index for s in whole]
        for a, b in zip(tiled, whole):
            assert a.seed_sequence.entropy == b.seed_sequence.entropy
            assert a.seed_sequence.spawn_key == b.seed_sequence.spawn_key

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=20)
    def test_point_namespaces_disjoint_from_runner_namespaces(
        self, seed, n_points, n_replicates
    ):
        """A sweep on root seed s and a caller's own MonteCarloRunner on
        the same seed must not share any replicate stream."""
        from repro.engine.runner import MonteCarloRunner

        spec = SweepSpec(
            name="prop",
            axes=(SweepAxis("p", tuple(range(n_points))),),
            builder=_trivial_builder,
        )
        runner = SweepRunner(spec, seed=seed)
        sweep_keys = set()
        for point in spec.expand():
            mc = MonteCarloRunner(
                complete_graph(4), VanillaGossip, np.zeros(4),
                seed=runner.point_sequence(point.index),
            )
            for spec_ in mc.build_specs(n_replicates, max_events=8):
                sweep_keys.add(spec_.seed_sequence.spawn_key)
        direct = MonteCarloRunner(
            complete_graph(4), VanillaGossip, np.zeros(4), seed=seed
        )
        direct_keys = {
            s.seed_sequence.spawn_key
            for s in direct.build_specs(n_replicates, max_events=8)
        }
        assert not (sweep_keys & direct_keys)
