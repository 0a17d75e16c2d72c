"""Integration: every experiment runs at smoke scale with all checks green."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.experiments.specs import EXPERIMENTS, run_experiment

#: sha256 of every smoke report; regenerate with
#: ``PYTHONPATH=src python tests/golden/test_golden_reports.py --regen``.
SMOKE_DIGESTS = (
    Path(__file__).resolve().parents[1] / "golden" / "reports_smoke.json"
)


def _canonical(value):
    """JSON-ready copy with floats at 12 significant digits, so the digest
    is about the report, not about the last bits of an eigensolver."""
    if isinstance(value, float):
        return float(f"{value:.12g}") if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def smoke_digest(report) -> str:
    """sha256 of the report's canonical ``to_dict()`` JSON."""
    text = json.dumps(_canonical(report.to_dict()), sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_experiment_smoke_passes(experiment_id):
    report = run_experiment(experiment_id, scale="smoke")
    failed = [c for c in report.checks if not c.passed]
    assert not failed, (
        f"{experiment_id} failed checks: "
        + "; ".join(f"{c.name} ({c.detail})" for c in failed)
    )
    assert report.tables, "every experiment must regenerate a table"
    rendered = report.render()
    assert report.experiment_id in rendered
    pinned = json.loads(SMOKE_DIGESTS.read_text(encoding="utf-8"))
    assert smoke_digest(report) == pinned[experiment_id], (
        f"{experiment_id}'s smoke report drifted from {SMOKE_DIGESTS.name}; "
        "if the change is intentional, regenerate with "
        "`PYTHONPATH=src python tests/golden/test_golden_reports.py --regen`"
    )


#: Shape checks that fail at ``--scale default`` for some report seeds
#: (docs/reports.md, "Known seed-fragile checks").  ``strict=True`` turns
#: a later fix into an XPASS, so the fix has to retire its entry here.
SEED_FRAGILE = [
    ("E11", 64, "geographic needs asymptotically fewer messages"),
    ("E2", 37, "T_av(A) grows sublinearly (polylog regime)"),
    ("E9", 64, "the well-connectedness indicator predicts the winner"),
]


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="seed-fragile shape check"
)
@pytest.mark.parametrize(
    "experiment_id, seed, check_name",
    SEED_FRAGILE,
    ids=[f"{eid}-seed{seed}" for eid, seed, _ in SEED_FRAGILE],
)
def test_seed_fragile_check_passes(experiment_id, seed, check_name):
    report = run_experiment(experiment_id, scale="default", seed=seed)
    (check,) = [c for c in report.checks if c.name == check_name]
    assert check.passed, f"{experiment_id} seed {seed}: {check.detail}"


def test_cli_runs_single_experiment(tmp_path, capsys):
    exit_code = main(["run", "E6", "--scale", "smoke", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "E6" in captured.out
    assert (tmp_path / "e6.txt").exists()
    assert (tmp_path / "e6.json").exists()


def test_cli_workers_flag_sets_env_and_reproduces_serial(
    monkeypatch, capsys
):
    """--workers must parallelize via REPRO_WORKERS without changing
    any measured number (the backend reproducibility guarantee)."""
    import os

    from repro.engine.backends import WORKERS_ENV_VAR

    # setenv (not delenv) so monkeypatch restores the pre-test state even
    # though main() writes to os.environ itself; "1" means serial.
    monkeypatch.setenv(WORKERS_ENV_VAR, "1")

    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    from repro.engine.backends import _SHARED_PROCESS_BACKENDS

    pools_before = set(_SHARED_PROCESS_BACKENDS)
    serial_out = run(["run", "E3", "--scale", "smoke"])
    parallel_out = run(["run", "E3", "--scale", "smoke", "--workers", "2"])
    # main() restores the pre-run value and releases the worker pools it
    # created (and only those), so programmatic calls leave no trace.
    assert os.environ.get(WORKERS_ENV_VAR) == "1"
    assert set(_SHARED_PROCESS_BACKENDS) == pools_before
    assert serial_out == parallel_out

    assert main(["run", "E3", "--workers", "0"]) == 2


def test_cli_sweep_runs_and_saves_artifact(tmp_path, capsys):
    """The sweep subcommand: axis overrides, fixed budget, JSON artifact."""
    exit_code = main([
        "sweep", "E3", "--scale", "smoke",
        "--axis", "n=16,24", "--axis", "algorithm=vanilla",
        "--replicates", "2", "--out", str(tmp_path),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "sweep E3" in captured.out
    assert (tmp_path / "sweep_e3.json").exists()

    from repro.engine.sweeps import SweepResult

    result = SweepResult.load(tmp_path / "sweep_e3.json")
    assert result.n_points == 2
    assert all(p.n_replicates == 2 for p in result.points)


@pytest.mark.slow
def test_cli_sweep_workers_reproduce_serial(tmp_path, capsys):
    """--workers must not change a single byte of the sweep artifact."""
    from repro.engine.backends import _SHARED_PROCESS_BACKENDS

    argv = [
        "sweep", "E3", "--scale", "smoke",
        "--axis", "n=16,24,32", "--axis", "algorithm=vanilla",
        "--target-ci", "0.8", "--min-replicates", "3",
        "--max-replicates", "8",
    ]
    pools_before = set(_SHARED_PROCESS_BACKENDS)
    assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
    assert main(argv + ["--out", str(tmp_path / "pooled"),
                        "--workers", "2"]) == 0
    capsys.readouterr()
    # Programmatic main() must release the worker pools it created.
    assert set(_SHARED_PROCESS_BACKENDS) == pools_before
    serial = (tmp_path / "serial" / "sweep_e3.json").read_text()
    pooled = (tmp_path / "pooled" / "sweep_e3.json").read_text()
    assert serial == pooled


def test_cli_sweep_checkpoint_resume(tmp_path, capsys):
    """A finished checkpoint makes the rerun a pure read."""
    argv = [
        "sweep", "E3", "--scale", "smoke", "--axis", "n=16",
        "--axis", "algorithm=vanilla", "--replicates", "2",
        "--checkpoint", str(tmp_path / "ckpt.json"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "1 points resumed" in second
    assert first.splitlines()[:5] == second.splitlines()[:5]  # same table


def test_cli_sweep_rejects_bad_input(capsys):
    assert main(["sweep", "E99"]) == 2
    assert "no sweep declared" in capsys.readouterr().err
    assert main(["sweep", "E3", "--axis", "bogus"]) == 2
    assert "--axis expects" in capsys.readouterr().err
    assert main(["sweep", "E3", "--workers", "0"]) == 2
    capsys.readouterr()


def test_cli_reports_failure_exit_code(monkeypatch, capsys):
    """A failing check must surface as a non-zero exit code."""
    from repro.experiments import specs
    from repro.experiments.harness import ExperimentReport

    def fake_experiment(scale=None, seed=0):
        report = ExperimentReport("E1", "t", "c")
        report.add_check("x", False, "boom")
        return report

    monkeypatch.setitem(specs.EXPERIMENTS, "E1", fake_experiment)
    assert main(["run", "E1", "--scale", "smoke"]) == 1
    capsys.readouterr()
