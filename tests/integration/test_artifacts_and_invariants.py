"""Cross-cutting invariants: artifacts round-trip, bounds hold on random instances."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.analysis.operators import sample_epoch_operators
from repro.analysis.bounds import theorem1_lower_bound
from repro.core.epochs import epoch_length_ticks
from repro.engine.simulator import simulate
from repro.algorithms.vanilla import VanillaGossip
from repro.experiments.reporting import save_report
from repro.experiments.specs import run_experiment
from repro.experiments.workloads import cut_aligned
from repro.graphs.composites import two_cliques, two_expanders
from repro.util.serialization import from_json_file


class TestArtifactRoundTrip:
    def test_experiment_json_is_loadable_and_complete(self, tmp_path):
        report = run_experiment("E7", scale="smoke")
        _, json_path = save_report(report, tmp_path)
        payload = from_json_file(json_path)
        assert payload["experiment_id"] == "E7"
        assert payload["all_checks_passed"] is True
        assert payload["tables"], "tables must be serialized"
        # Every check is a {name, passed, detail} record.
        for check in payload["checks"]:
            assert set(check) == {"name", "passed", "detail"}

    def test_rendered_text_and_json_agree_on_checks(self, tmp_path):
        report = run_experiment("E11", scale="smoke")
        text_path, json_path = save_report(report, tmp_path)
        text = text_path.read_text()
        payload = json.loads(json_path.read_text())
        for check in payload["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            assert f"[{status}] {check['name']}" in text


class TestEq12AcrossRandomInstances:
    """Eq. 12 (the true half of Lemma 1) must hold on every instance."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_operator_norm_at_most_n(self, seed):
        rng = np.random.default_rng(seed)
        n1 = int(rng.integers(4, 10))
        n2 = int(rng.integers(n1, 14))
        pair = two_cliques(n1, n2, n_bridges=1)
        epoch = epoch_length_ticks(pair.partition, constant=3.0)
        samples = sample_epoch_operators(
            pair.partition, epoch_length=epoch, n_epochs=5, seed=seed
        )
        n = pair.graph.n_vertices
        assert all(s.norm <= n + 1e-9 for s in samples)
        # The swap is the norm driver: the cross-cut imbalance direction
        # (fixed by mixing) maps to a post-swap spike of norm
        # ~sqrt(n1 n2 / n) (fidelity note F5 in docs/reports.md).
        spike_floor = math.sqrt(n1 * n2 / (n1 + n2))
        assert max(s.norm for s in samples) >= 0.8 * spike_floor


class TestTheorem1OnRandomInstances:
    """Vanilla must respect the convex floor on every sampled instance."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_vanilla_above_bound(self, seed):
        rng = np.random.default_rng(seed)
        half = int(rng.integers(10, 20))
        pair = two_expanders(half, half, degree=4, n_bridges=1, seed=seed)
        x0 = cut_aligned(pair.partition)
        bound = theorem1_lower_bound(pair.partition)
        result = simulate(
            pair.graph, VanillaGossip(), x0, seed=seed,
            target_ratio=math.e**-2, max_time=200.0 * half,
        )
        assert result.stopped_by == "target_ratio"
        crossing = result.crossing(math.e**-2)
        assert crossing.first_below >= bound


class TestCrossingTrackerInvariants:
    def test_last_above_monotone_in_threshold(self, medium_dumbbell):
        """Smaller thresholds are crossed later: last_above must decrease
        as the threshold grows."""
        x0 = cut_aligned(medium_dumbbell.partition)
        result = simulate(
            medium_dumbbell.graph, VanillaGossip(), x0, seed=6,
            target_ratio=1e-8, thresholds=(0.5, 0.1, 0.02),
        )
        t_50 = result.crossing(0.5).last_above
        t_10 = result.crossing(0.1).last_above
        t_02 = result.crossing(0.02).last_above
        assert t_50 <= t_10 <= t_02

    def test_monotone_algorithm_first_equals_last(self, medium_dumbbell):
        x0 = cut_aligned(medium_dumbbell.partition)
        result = simulate(
            medium_dumbbell.graph, VanillaGossip(), x0, seed=7,
            target_ratio=1e-8, thresholds=(math.e**-2,),
        )
        crossing = result.crossing(math.e**-2)
        # For monotone variance the first dip below is final: the gap
        # between last_above and first_below is a single event.
        assert crossing.first_below >= crossing.last_above
