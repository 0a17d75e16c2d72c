"""Unit tests for the sharded sweep scheduler.

Mirrors ``test_backends.py``'s determinism suite one level up: a sweep's
reported result must be **bit-identical** across backends, worker counts
and adaptive round sizes, because every sample is keyed by its
(configuration, replicate) seed namespace and the stopping rule is a
prefix scan over the sample sequence.  Factories and builders live at
module level so they survive pickling to worker processes.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.algorithms.vanilla import VanillaGossip
from repro.engine.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    shutdown_shared_backends,
)
from repro.engine.results import results_identical
from repro.engine.sweeps import (
    PointConfig,
    PointResult,
    ReplicateBudget,
    StopDecision,
    SweepAxis,
    SweepResult,
    SweepRunner,
    SweepSpec,
    bootstrap_quantile_ci,
    evaluate_stopping,
    quantile_estimate,
    run_sweep,
)
from repro.errors import SweepError
from repro.graphs.topologies import complete_graph


@pytest.fixture(autouse=True)
def _release_shared_pools():
    yield
    shutdown_shared_backends()


def build_complete_point(*, n: int, algorithm: str) -> PointConfig:
    """Tiny, fast measurement: vanilla gossip on K_n."""
    return PointConfig(
        graph=complete_graph(int(n)),
        algorithm_factory=VanillaGossip,
        initial_values=[float(i) for i in range(int(n))],
        max_time=50.0,
        max_events=100_000,
    )


class NaNGossip(VanillaGossip):
    """Poisons the value vector: every tick returns NaN endpoints."""

    name = "nan-gossip"

    def on_tick(self, edge_id, u, v, time, tick_count, values):
        return (float("nan"), float("nan"))


def build_nan_point(*, n: int) -> PointConfig:
    return PointConfig(
        graph=complete_graph(int(n)),
        algorithm_factory=NaNGossip,
        initial_values=[float(i) for i in range(int(n))],
        max_events=16,
    )


def build_censored_point(*, n: int) -> PointConfig:
    """A budget far too small: every replicate censors (inf sample)."""
    return PointConfig(
        graph=complete_graph(int(n)),
        algorithm_factory=VanillaGossip,
        initial_values=[float(i) for i in range(int(n))],
        max_time=1e-6,
    )


def build_padded_point(*, n: int, pad: int) -> PointConfig:
    """Builder whose base param changes nothing observable — exactly the
    case the checkpoint fingerprint must still distinguish."""
    return build_complete_point(n=n, algorithm="vanilla")


def build_mixed_pickle_point(*, n: int) -> PointConfig:
    """One good configuration, one carrying an unpicklable closure."""
    config = build_complete_point(n=n, algorithm="vanilla")
    if n == 6:
        config.algorithm_factory = lambda: VanillaGossip()
    return config


def small_spec() -> SweepSpec:
    return SweepSpec(
        name="unit",
        axes=(
            SweepAxis("n", (5, 6, 7)),
            SweepAxis("algorithm", ("vanilla",)),
        ),
        builder=build_complete_point,
    )


ADAPTIVE = ReplicateBudget.adaptive(
    target_ci=0.6, min_replicates=3, max_replicates=12, round_size=2
)


def sweep_json(result: SweepResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class CountingBackend(ExecutionBackend):
    """Serial execution that records how many specs it ever ran."""

    name = "counting"

    def __init__(self) -> None:
        self.n_executed = 0

    def execute(self, specs):
        self.n_executed += len(specs)
        return SerialBackend().execute(specs)


class TestSweepDeterminism:
    def test_round_sizes_do_not_change_the_result(self):
        """The headline scheduling-independence guarantee: the settled
        prefix is a function of the sample sequence only."""
        spec = small_spec()
        results = {}
        for round_size in (1, 3, 7):
            budget = ReplicateBudget.adaptive(
                target_ci=0.6, min_replicates=3, max_replicates=12,
                round_size=round_size,
            )
            runner = SweepRunner(
                spec, seed=5, budget=budget, keep_run_results=True
            )
            results[round_size] = (runner.run(), runner.run_results)
        reference, reference_runs = results[1]
        for round_size in (3, 7):
            other, other_runs = results[round_size]
            assert sweep_json(other) == sweep_json(reference)
            assert set(other_runs) == set(reference_runs)
            for index in reference_runs:
                assert len(other_runs[index]) == len(reference_runs[index])
                for a, b in zip(other_runs[index], reference_runs[index]):
                    assert results_identical(a, b)

    def test_backends_agree_field_by_field(self, backend):
        """Serial vs process, one matrix: bit-identical
        SweepResult and field-by-field identical raw RunResults."""
        spec = small_spec()
        reference_runner = SweepRunner(
            spec, seed=5, budget=ADAPTIVE, backend=SerialBackend(),
            keep_run_results=True,
        )
        reference = reference_runner.run()
        runner = SweepRunner(
            spec, seed=5, budget=ADAPTIVE, backend=backend,
            keep_run_results=True,
        )
        other = runner.run()
        assert sweep_json(other) == sweep_json(reference)
        for index in reference_runner.run_results:
            for a, b in zip(
                runner.run_results[index], reference_runner.run_results[index]
            ):
                assert results_identical(a, b)

    @pytest.mark.slow
    def test_worker_counts_agree_byte_for_byte(self):
        """2 vs 4 pool workers: scheduling width never leaks into results."""
        spec = small_spec()
        outcomes = {}
        for n_workers in (2, 4):
            backend = ProcessPoolBackend(n_workers)
            outcomes[n_workers] = SweepRunner(
                spec, seed=5, budget=ADAPTIVE, backend=backend
            ).run()
            backend.shutdown()
        assert sweep_json(outcomes[2]) == sweep_json(outcomes[4])

    def test_run_sweep_convenience_matches_runner(self):
        spec = small_spec()
        direct = SweepRunner(spec, seed=9, budget=ADAPTIVE).run()
        wrapped = run_sweep(spec, seed=9, budget=ADAPTIVE)
        assert sweep_json(direct) == sweep_json(wrapped)

    def test_json_round_trip_is_lossless(self, tmp_path):
        result = SweepRunner(small_spec(), seed=5, budget=ADAPTIVE).run()
        path = result.save(tmp_path / "sweep.json")
        clone = SweepResult.load(path)
        assert sweep_json(clone) == sweep_json(result)
        # Saving the clone reproduces the identical artifact.
        clone_path = clone.save(tmp_path / "clone.json")
        assert clone_path.read_text() == path.read_text()


class TestAdaptiveStopping:
    def test_minimum_replicate_floor_respected(self):
        """Even a zero-noise configuration never settles below the floor."""
        budget = ReplicateBudget.adaptive(
            target_ci=100.0, min_replicates=5, max_replicates=20,
            round_size=3,
        )
        result = SweepRunner(small_spec(), seed=2, budget=budget).run()
        for point in result.points:
            assert point.n_replicates == 5  # floor, and never less
            assert not point.budget_exhausted

    def test_adaptive_beats_fixed_within_tolerance(self):
        """The budget's reason to exist: fewer replicates than the fixed
        cap on at least one point, CI still inside the target."""
        spec = small_spec()
        adaptive = ReplicateBudget.adaptive(
            target_ci=0.8, min_replicates=3, max_replicates=16, round_size=2
        )
        adaptive_result = SweepRunner(spec, seed=5, budget=adaptive).run()
        fixed_result = SweepRunner(
            spec, seed=5, budget=ReplicateBudget.fixed(16)
        ).run()
        assert fixed_result.total_replicates == 16 * spec.n_points
        assert adaptive_result.total_replicates < fixed_result.total_replicates
        saved = [
            p for p in adaptive_result.points
            if p.n_replicates < 16 and not p.budget_exhausted
        ]
        assert saved, "no grid point settled below the fixed budget"
        for point in saved:
            assert point.ci_relative_width <= 0.8

    def test_cap_reached_flags_budget_exhausted(self):
        budget = ReplicateBudget.adaptive(
            target_ci=1e-6, min_replicates=3, max_replicates=6, round_size=2
        )
        result = SweepRunner(small_spec(), seed=2, budget=budget).run()
        for point in result.points:
            assert point.n_replicates == 6
            assert point.budget_exhausted

    def test_fixed_budget_never_flags_exhaustion(self):
        result = SweepRunner(
            small_spec(), seed=2, budget=ReplicateBudget.fixed(4)
        ).run()
        for point in result.points:
            assert point.n_replicates == 4
            assert not point.budget_exhausted
            # Fixed budgets still report a CI for the aggregation tables.
            assert point.ci_low <= point.estimate <= point.ci_high

    def test_nan_replicates_excluded_without_stalling(self):
        """A diverging configuration terminates at the cap with its NaN
        samples counted but excluded from the quantile."""
        spec = SweepSpec(
            name="nan",
            axes=(SweepAxis("n", (5,)),),
            builder=build_nan_point,
        )
        budget = ReplicateBudget.adaptive(
            target_ci=0.5, min_replicates=3, max_replicates=7, round_size=2
        )
        result = SweepRunner(spec, seed=0, budget=budget).run()
        (point,) = result.points
        assert point.n_replicates == 7  # ran to the cap, did not stall
        assert point.budget_exhausted
        assert point.n_diverged == 7
        assert math.isnan(point.estimate)
        # The artifact still round-trips (NaN encoded portably).
        clone = SweepResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert math.isnan(clone.points[0].estimate)

    def test_censored_replicates_keep_quantile_honest(self):
        """All-censored points report an infinite quantile and run to the
        cap rather than pretending the CI tightened."""
        spec = SweepSpec(
            name="censored",
            axes=(SweepAxis("n", (5,)),),
            builder=build_censored_point,
        )
        budget = ReplicateBudget.adaptive(
            target_ci=0.5, min_replicates=3, max_replicates=5, round_size=1
        )
        result = SweepRunner(spec, seed=0, budget=budget).run()
        (point,) = result.points
        assert point.estimate == float("inf")
        assert point.n_censored == point.n_replicates == 5
        assert point.budget_exhausted

    def test_evaluate_stopping_prefix_scan(self):
        """The pure stopping rule: NaN exclusion, floor, determinism."""
        budget = ReplicateBudget.adaptive(
            target_ci=0.5, min_replicates=3, max_replicates=8, round_size=2
        )
        sequence = np.random.SeedSequence(7)
        tight = [1.0, 1.01, 0.99, 1.0, 1.02]
        decision = evaluate_stopping(tight, budget, 0.5, sequence)
        assert decision.n_used == 3  # settles at the floor, never below
        assert not decision.budget_exhausted
        # NaN-poisoned prefix: needs more samples, but same rule applies.
        noisy = [float("nan"), float("nan"), 1.0, 1.01, 0.99, 1.0]
        decision = evaluate_stopping(noisy, budget, 0.5, sequence)
        assert decision.n_used is not None
        # All-NaN at the cap: settles exhausted instead of stalling.
        all_nan = [float("nan")] * 8
        decision = evaluate_stopping(all_nan, budget, 0.5, sequence)
        assert decision.n_used == 8
        assert decision.budget_exhausted
        # Identical inputs give identical decisions (keyed bootstrap).
        first = evaluate_stopping(tight, budget, 0.5, sequence)
        second = evaluate_stopping(tight, budget, 0.5, sequence)
        assert isinstance(first, StopDecision)
        assert first == second

    def test_quantile_and_bootstrap_helpers(self):
        assert quantile_estimate([3.0, 1.0, 2.0], 0.5) == 2.0
        assert quantile_estimate([1.0, float("inf")], 0.9) == float("inf")
        assert math.isnan(quantile_estimate([], 0.5))
        low, high = bootstrap_quantile_ci(
            [1.0, 2.0, 3.0, 4.0], 0.5, confidence=0.9, n_bootstrap=64,
            seed_sequence=np.random.SeedSequence(1),
        )
        assert 1.0 <= low <= high <= 4.0
        again = bootstrap_quantile_ci(
            [1.0, 2.0, 3.0, 4.0], 0.5, confidence=0.9, n_bootstrap=64,
            seed_sequence=np.random.SeedSequence(1),
        )
        assert (low, high) == again
        # Degenerate input: CI is honest about knowing nothing.
        assert bootstrap_quantile_ci(
            [1.0], 0.5, confidence=0.9, n_bootstrap=8,
            seed_sequence=np.random.SeedSequence(1),
        ) == (float("-inf"), float("inf"))


class TestCheckpointing:
    def test_checkpoint_resume_skips_settled_points(self, tmp_path):
        path = tmp_path / "ckpt.json"
        spec = small_spec()
        first = SweepRunner(
            spec, seed=5, budget=ADAPTIVE, checkpoint_path=path
        ).run()
        assert path.exists()
        backend = CountingBackend()
        resumed_runner = SweepRunner(
            spec, seed=5, budget=ADAPTIVE, backend=backend,
            checkpoint_path=path,
        )
        resumed = resumed_runner.run()
        assert backend.n_executed == 0  # every point came from the file
        assert resumed_runner.stats["points_resumed"] == spec.n_points
        assert sweep_json(resumed) == sweep_json(first)

    def test_partial_checkpoint_only_runs_missing_points(self, tmp_path):
        path = tmp_path / "ckpt.json"
        spec = small_spec()
        full = SweepRunner(
            spec, seed=5, budget=ADAPTIVE, checkpoint_path=path
        ).run()
        # Drop one settled point from the checkpoint to simulate a sweep
        # interrupted mid-grid.
        payload = json.loads(path.read_text())
        dropped = payload["points"].pop()
        path.write_text(json.dumps(payload))
        backend = CountingBackend()
        resumed = SweepRunner(
            spec, seed=5, budget=ADAPTIVE, backend=backend,
            checkpoint_path=path,
        ).run()
        assert backend.n_executed > 0
        assert sweep_json(resumed) == sweep_json(full)
        assert json.loads(path.read_text())["points"][-1] == dropped

    def test_checkpoint_rejects_changed_base_params(self, tmp_path):
        """Same name/axes/seed/budget but different base_params means
        different graphs — resuming across them must be refused."""
        path = tmp_path / "ckpt.json"

        def spec_with(pad):
            return SweepSpec(
                name="fp",
                axes=(SweepAxis("n", (5,)),),
                builder=build_padded_point,
                base_params={"pad": pad},
            )

        SweepRunner(spec_with(1), seed=0, budget=ReplicateBudget.fixed(2),
                    checkpoint_path=path).run()
        with pytest.raises(SweepError, match="different sweep"):
            SweepRunner(spec_with(2), seed=0,
                        budget=ReplicateBudget.fixed(2),
                        checkpoint_path=path).run()

    def test_checkpoint_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        spec = small_spec()
        SweepRunner(spec, seed=5, budget=ADAPTIVE,
                    checkpoint_path=path).run()
        with pytest.raises(SweepError, match="different sweep"):
            SweepRunner(spec, seed=6, budget=ADAPTIVE,
                        checkpoint_path=path).run()
        with pytest.raises(SweepError, match="different sweep"):
            SweepRunner(spec, seed=5, budget=ReplicateBudget.fixed(3),
                        checkpoint_path=path).run()

    def test_truncated_checkpoint_rejected_with_guidance(self, tmp_path):
        """Writes are atomic, so a torn file means external damage —
        resume must refuse it with a clear message, not crash mid-parse
        or silently restart."""
        path = tmp_path / "ckpt.json"
        spec = small_spec()
        SweepRunner(spec, seed=5, budget=ADAPTIVE,
                    checkpoint_path=path).run()
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(SweepError, match="delete it"):
            SweepRunner(spec, seed=5, budget=ADAPTIVE,
                        checkpoint_path=path).run()

    def test_structurally_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        spec = small_spec()
        SweepRunner(spec, seed=5, budget=ADAPTIVE,
                    checkpoint_path=path).run()
        payload = json.loads(path.read_text())
        payload["points"][0] = {"nonsense": True}
        path.write_text(json.dumps(payload))
        with pytest.raises(SweepError, match="structurally corrupt"):
            SweepRunner(spec, seed=5, budget=ADAPTIVE,
                        checkpoint_path=path).run()
        # Valid JSON that is simply not a sweep checkpoint.
        path.write_text("[1, 2, 3]")
        with pytest.raises(SweepError, match="not a sweep"):
            SweepRunner(spec, seed=5, budget=ADAPTIVE,
                        checkpoint_path=path).run()

    def test_partial_round_resume_is_byte_identical(self, tmp_path):
        """Crash-safe resume: kill the sweep after its first round, then
        resume from the checkpoint on a fresh backend.  The pending
        points' sample prefixes are restored, and both the final result and
        its saved artifact match the uninterrupted run byte for byte."""
        path = tmp_path / "ckpt.json"
        spec = small_spec()
        budget = ReplicateBudget.adaptive(
            target_ci=0.05, min_replicates=3, max_replicates=9, round_size=3
        )
        uninterrupted = SweepRunner(spec, seed=5, budget=budget).run()
        uninterrupted_path = uninterrupted.save(tmp_path / "uninterrupted.json")

        class CrashAfterOneRound(CountingBackend):
            def execute(self, specs):
                if self.n_executed:
                    raise RuntimeError("simulated crash")
                return super().execute(specs)

        with pytest.raises(RuntimeError, match="simulated crash"):
            SweepRunner(
                spec, seed=5, budget=budget,
                backend=CrashAfterOneRound(), checkpoint_path=path,
            ).run()
        payload = json.loads(path.read_text())
        assert payload["partial"]  # round 1's samples survived the crash
        runner = SweepRunner(
            spec, seed=5, budget=budget,
            backend=CountingBackend(), checkpoint_path=path,
        )
        resumed = runner.run()
        assert runner.stats["replicates_resumed"] > 0
        assert sweep_json(resumed) == sweep_json(uninterrupted)
        resumed_path = resumed.save(tmp_path / "resumed.json")
        assert resumed_path.read_bytes() == uninterrupted_path.read_bytes()


class TestSpecValidation:
    def test_spec_rejects_bad_shapes(self):
        axis = SweepAxis("n", (1, 2))
        with pytest.raises(SweepError):
            SweepSpec("s", (), builder=build_complete_point)
        with pytest.raises(SweepError):
            SweepSpec("s", (axis, SweepAxis("n", (3,))),
                      builder=build_complete_point)
        with pytest.raises(SweepError):
            SweepSpec("s", (axis,), builder=build_complete_point,
                      base_params={"n": 4})
        with pytest.raises(SweepError):
            SweepSpec("s", (axis,), builder="not-callable")
        with pytest.raises(SweepError):
            SweepSpec("s", (axis,), builder=build_complete_point) \
                .with_axis("missing", [1])

    def test_budget_validation(self):
        with pytest.raises(SweepError):
            ReplicateBudget(min_replicates=0)
        with pytest.raises(SweepError):
            ReplicateBudget(min_replicates=5, max_replicates=4)
        with pytest.raises(SweepError):
            ReplicateBudget(round_size=0)
        with pytest.raises(SweepError):
            ReplicateBudget(target_ci=0.0)
        with pytest.raises(SweepError):
            ReplicateBudget(confidence=1.0)
        assert not ReplicateBudget.fixed(4).is_adaptive
        assert ADAPTIVE.is_adaptive
        assert ReplicateBudget.from_dict(ADAPTIVE.to_dict()) == ADAPTIVE

    def test_point_config_validation(self):
        with pytest.raises(SweepError):
            PointConfig(
                graph=complete_graph(4),
                algorithm_factory=VanillaGossip,
                initial_values=np.zeros(4),
            )  # no budget at all
        with pytest.raises(SweepError):
            PointConfig(
                graph=complete_graph(4),
                algorithm_factory=VanillaGossip,
                initial_values=np.zeros(4),
                max_events=10,
                threshold=1.5,
            )

    def test_unpicklable_point_in_mixed_batch_fails_fast(self):
        """A sweep batch is heterogeneous: the picklability probe must
        catch a bad configuration even when the first one is fine."""
        from repro.errors import SimulationError

        spec = SweepSpec(
            name="mixed",
            axes=(SweepAxis("n", (5, 6)),),
            builder=build_mixed_pickle_point,
        )
        backend = ProcessPoolBackend(2)
        try:
            with pytest.raises(SimulationError, match="AlgorithmFactory"):
                SweepRunner(spec, seed=0, budget=ReplicateBudget.fixed(2),
                            backend=backend).run()
        finally:
            backend.shutdown()

    def test_builder_return_type_checked(self):
        spec = SweepSpec(
            name="bad",
            axes=(SweepAxis("n", (4,)),),
            builder=lambda **kw: "nonsense",
        )
        with pytest.raises(SweepError, match="PointConfig"):
            SweepRunner(spec, seed=0).run()

    def test_point_lookup(self):
        result = SweepRunner(small_spec(), seed=5,
                             budget=ReplicateBudget.fixed(2)).run()
        point = result.point(n=6)
        assert point.params["n"] == 6
        with pytest.raises(SweepError):
            result.point(n=999)
        with pytest.raises(SweepError):
            result.point(algorithm="vanilla")  # matches all three points

    def test_point_result_encoding_round_trips_non_finite(self):
        point = PointResult(
            index=0, params={"n": 4},
            estimate=float("inf"), ci_low=float("-inf"),
            ci_high=float("inf"), quantile=0.5, threshold=0.1,
            samples=[1.0, float("inf"), float("nan")],
            n_censored=1, n_diverged=1, budget_exhausted=True,
        )
        clone = PointResult.from_dict(
            json.loads(json.dumps(point.to_dict()))
        )
        assert clone.estimate == float("inf")
        assert clone.ci_low == float("-inf")
        assert clone.samples[1] == float("inf")
        assert math.isnan(clone.samples[2])
        assert clone.ci_relative_width == float("inf")


@pytest.mark.slow
class TestAcceptanceE3Sweep:
    """The PR's acceptance scenario, pinned as a regression test."""

    def test_smoke_e3_sweep_bit_identical_and_adaptive_saves(self):
        from repro.experiments.specs_sweeps import get_sweep

        spec = get_sweep("E3", scale="smoke").with_axis("n", [16, 24, 32])
        adaptive = ReplicateBudget.adaptive(
            target_ci=0.8, min_replicates=3, max_replicates=16, round_size=2
        )
        serial = SweepRunner(
            spec, seed=0, budget=adaptive, backend=SerialBackend()
        ).run()
        serial_json = sweep_json(serial)
        for n_workers in (2, 4):
            backend = ProcessPoolBackend(n_workers)
            pooled = SweepRunner(
                spec, seed=0, budget=adaptive, backend=backend
            ).run()
            backend.shutdown()
            assert sweep_json(pooled) == serial_json
        fixed = SweepRunner(
            spec, seed=0, budget=ReplicateBudget.fixed(16)
        ).run()
        saved = [
            p for p in serial.points
            if p.n_replicates < 16 and not p.budget_exhausted
        ]
        assert saved, "adaptive budget never beat the fixed budget"
        for point in saved:
            assert point.ci_relative_width <= 0.8
        assert serial.total_replicates < fixed.total_replicates
