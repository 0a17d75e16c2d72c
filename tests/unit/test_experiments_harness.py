"""Unit tests for workloads, the report harness, reporting and the CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.cli import build_parser, main
from repro.experiments.harness import (
    ExperimentReport,
    ShapeCheck,
    pick,
    resolve_scale,
)
from repro.experiments.reporting import render_summary, save_report
from repro.experiments.specs import EXPERIMENTS, get_experiment
from repro.experiments.workloads import bimodal_noise, cut_aligned, spike
from repro.util.tables import Table

from oracles import gaussian, linear_gradient


class TestWorkloads:
    def test_cut_aligned_matches_paper(self, medium_dumbbell):
        partition = medium_dumbbell.partition
        values = cut_aligned(partition)
        assert np.all(values[partition.vertices_1] == 1.0)
        assert np.all(values[partition.vertices_2] == -16 / 16)
        assert values.mean() == pytest.approx(0.0, abs=1e-12)

    def test_cut_aligned_unbalanced_zero_mean(self, unbalanced_partition):
        values = cut_aligned(unbalanced_partition)
        assert values.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.all(values[unbalanced_partition.vertices_2] == -2 / 4)

    def test_gaussian_zero_mean(self):
        values = gaussian(50, rng=1)
        assert values.mean() == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ExperimentError):
            gaussian(0)
        with pytest.raises(ExperimentError):
            gaussian(5, scale=-1)

    def test_spike(self):
        values = spike(10, vertex=3)
        assert values.mean() == pytest.approx(0.0, abs=1e-12)
        assert np.argmax(values) == 3
        with pytest.raises(ExperimentError):
            spike(5, vertex=9)

    def test_linear_gradient(self):
        values = linear_gradient(5)
        assert values.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_bimodal_noise(self, medium_dumbbell):
        values = bimodal_noise(medium_dumbbell.partition, rng=2, noise=0.1)
        assert values.mean() == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ExperimentError):
            bimodal_noise(medium_dumbbell.partition, noise=-0.5)


class TestReportHarness:
    def test_report_checks_and_render(self):
        report = ExperimentReport("EX", "title", "claim")
        table = Table(["a"])
        table.add_row([1])
        report.tables.append(table)
        report.findings["speedup"] = 3.5
        report.add_check("works", True, "detail-1")
        report.add_check("fails", False, "detail-2")
        assert not report.all_checks_passed
        text = report.render()
        assert "[PASS] works" in text and "[FAIL] fails" in text
        assert "speedup = 3.5" in text
        info = report.to_dict()
        assert info["all_checks_passed"] is False
        assert info["tables"][0]["rows"] == [["1"]]

    def test_shape_check_dataclass(self):
        check = ShapeCheck("name", True, "d")
        assert check.to_dict() == {"name": "name", "passed": True, "detail": "d"}

    def test_scale_resolution(self, monkeypatch):
        assert resolve_scale("smoke") == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert resolve_scale(None) == "full"
        monkeypatch.delenv("REPRO_SCALE")
        assert resolve_scale(None) == "default"
        with pytest.raises(ExperimentError):
            resolve_scale("huge")

    def test_pick(self):
        assert pick("smoke", smoke=1, default=2, full=3) == 1
        assert pick("full", smoke=1, default=2, full=3) == 3


class TestRegistryAndReporting:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 15)}

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("e3") is EXPERIMENTS["E3"]
        with pytest.raises(ExperimentError):
            get_experiment("E99")

    def test_save_report_artifacts(self, tmp_path):
        report = ExperimentReport("E0", "t", "c")
        report.add_check("x", True, "d")
        text_path, json_path = save_report(report, tmp_path)
        assert text_path.exists() and json_path.exists()
        assert "E0" in text_path.read_text()

    def test_render_summary(self):
        good = ExperimentReport("E1", "one", "c")
        good.add_check("a", True, "d")
        bad = ExperimentReport("E2", "two", "c")
        bad.add_check("a", False, "d")
        summary = render_summary([good, bad])
        assert "[PASS] E1" in summary and "[FAIL] E2" in summary


class TestCli:
    def test_parser_list_and_run(self):
        parser = build_parser()
        args = parser.parse_args(["run", "E3", "--scale", "smoke"])
        assert args.experiment == "E3" and args.scale == "smoke"
        assert parser.parse_args(["list"]).command == "list"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1:" in out and "E10:" in out

    def test_run_command_smoke(self, tmp_path, capsys):
        code = main(["run", "E7", "--scale", "smoke", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "E7" in out
        assert (tmp_path / "e7.json").exists()
        assert code == 0
