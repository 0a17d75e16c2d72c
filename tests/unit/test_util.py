"""Unit tests for the util layer (rng, math, tables, plots, io, timer)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.util.ascii_plot import line_plot
from repro.util.mathx import (
    fit_log_law,
    fit_power_law,
    quantile,
    running_mean,
    safe_log,
    variance,
)
from repro.util.rng import RngFactory, as_generator, spawn_generators
from repro.util.serialization import from_json_file, to_json_file, to_jsonable
from repro.util.tables import Table
from repro.util.timer import Timer
from repro.util.validation import check_probability

from oracles import (
    geometric_mean,
    iter_seeds,
    log_log_slope,
    log_ratio,
    relative_error,
    sample_without_replacement,
)


class TestRng:
    def test_as_generator_accepts_many_inputs(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen
        assert isinstance(as_generator(5), np.random.Generator)
        assert isinstance(as_generator(None), np.random.Generator)
        assert isinstance(
            as_generator(np.random.SeedSequence(1)), np.random.Generator
        )
        with pytest.raises(TypeError):
            as_generator("seed")

    def test_spawn_generators_independent_but_reproducible(self):
        first = [g.random() for g in spawn_generators(7, 3)]
        second = [g.random() for g in spawn_generators(7, 3)]
        assert first == second
        assert len(set(first)) == 3
        with pytest.raises(ValueError):
            spawn_generators(7, -1)

    def test_factory_streams_are_stable_and_distinct(self):
        factory = RngFactory(seed=11)
        a1 = factory.stream("alpha").random()
        b1 = factory.stream("beta").random()
        repeat = RngFactory(seed=11)
        assert repeat.stream("alpha").random() == a1
        assert repeat.stream("beta").random() == b1
        assert a1 != b1

    def test_factory_repeated_name_advances(self):
        factory = RngFactory(seed=3)
        x = factory.stream("s").random()
        y = factory.stream("s").random()
        assert x != y

    def test_replicate_streams(self):
        factory = RngFactory(seed=1)
        streams = factory.replicate_streams("rep", 4)
        values = [s.random() for s in streams]
        assert len(set(values)) == 4

    def test_iter_seeds(self):
        seeds = list(iter_seeds(42, 5))
        assert len(seeds) == 5 and len(set(seeds)) == 5
        assert all(0 <= s < 2**63 for s in seeds)

    def test_sample_without_replacement(self, rng):
        sample = sample_without_replacement(rng, list(range(10)), 4)
        assert len(np.unique(sample)) == 4
        with pytest.raises(ValueError):
            sample_without_replacement(rng, [1, 2], 3)


class TestMathx:
    def test_safe_log_floors(self):
        assert safe_log(0.0) == math.log(1e-300)
        assert safe_log(math.e) == pytest.approx(1.0)

    def test_log_ratio(self):
        assert log_ratio(4.0, 2.0) == pytest.approx(math.log(2.0))
        with pytest.raises(ValueError):
            log_ratio(1.0, 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([0.0, 5.0]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([-1.0])

    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            relative_error(1.0, 0.0)

    def test_running_mean(self):
        assert running_mean([2.0, 4.0, 6.0]).tolist() == [2.0, 3.0, 4.0]
        with pytest.raises(ValueError):
            running_mean(np.zeros((2, 2)))

    def test_quantile_and_variance(self):
        assert quantile([1.0, 2.0, 3.0], 0.5) == 2.0
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)
        assert variance([1.0, -1.0]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            variance([])

    def test_fit_power_law_recovers_exponent(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        ys = 3.0 * xs**1.7
        exponent, prefactor = fit_power_law(xs, ys)
        assert exponent == pytest.approx(1.7)
        assert prefactor == pytest.approx(3.0)

    def test_fit_power_law_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [1.0])

    def test_fit_log_law(self):
        xs = np.array([1.0, math.e, math.e**2])
        ys = 5.0 * np.log(xs) + 2.0
        slope, intercept = fit_log_law(xs, ys)
        assert slope == pytest.approx(5.0)
        assert intercept == pytest.approx(2.0)


class TestTables:
    def test_render_alignment(self):
        table = Table(["a", "value"], title="t")
        table.add_row([1, 2.5])
        table.add_row(["long-cell", 3])
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "t"
        assert all(len(line) <= max(len(ln) for ln in lines) for line in lines)
        assert "long-cell" in text

    def test_row_length_validated(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row([1])

    def test_float_and_bool_formatting(self):
        table = Table(["x"])
        table.add_rows([[0.123456789], [True]])
        rows = table.to_rows()
        assert rows[0][0] == "0.1235"
        assert rows[1][0] == "yes"
        assert table.n_rows == 2

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError):
            Table([])


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        text = line_plot({"a": ([1, 2, 3], [1, 4, 9])}, title="demo")
        assert "demo" in text
        assert "legend: o a" in text
        assert "o" in text

    def test_log_axes_require_positive(self):
        with pytest.raises(ValueError):
            line_plot({"a": ([0.0, 1.0], [1.0, 2.0])}, logx=True)

    def test_mismatched_series_rejected(self):
        with pytest.raises(ValueError):
            line_plot({"a": ([1, 2], [1])})
        with pytest.raises(ValueError):
            line_plot({})

    def test_multiple_series_distinct_markers(self):
        text = line_plot(
            {"one": ([1, 2], [1, 2]), "two": ([1, 2], [2, 1])}
        )
        assert "o one" in text and "x two" in text

    def test_log_log_slope(self):
        xs = [1.0, 2.0, 4.0]
        ys = [2.0, 8.0, 32.0]
        assert log_log_slope(xs, ys) == pytest.approx(2.0)


class TestSerialization:
    def test_jsonable_handles_numpy(self):
        payload = to_jsonable(
            {"a": np.int64(3), "b": np.float64(2.5), "c": np.arange(3),
             "d": (1, 2), 5: "x"}
        )
        assert payload == {"a": 3, "b": 2.5, "c": [0, 1, 2], "d": [1, 2],
                           "5": "x"}

    def test_jsonable_uses_to_dict(self):
        class Thing:
            def to_dict(self):
                return {"k": 1}

        assert to_jsonable(Thing()) == {"k": 1}

    def test_jsonable_rejects_unknown(self):
        with pytest.raises(SerializationError):
            to_jsonable(object())

    def test_file_roundtrip(self, tmp_path):
        data = {"x": [1, 2, 3], "y": {"z": 4.5}}
        path = to_json_file(data, tmp_path / "out" / "result.json")
        assert from_json_file(path) == data

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError, match="no such"):
            from_json_file(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SerializationError, match="invalid JSON"):
            from_json_file(bad)

    def test_atomic_write_leaves_no_temp_residue(self, tmp_path):
        path = to_json_file({"x": 1}, tmp_path / "result.json")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_failed_serialization_preserves_existing_file(self, tmp_path):
        """A crash (or unserializable value) mid-write must leave the
        previous complete file in place — checkpoint resume depends on
        never seeing a torn file."""
        target = tmp_path / "result.json"
        to_json_file({"generation": 1}, target)
        with pytest.raises(SerializationError):
            to_json_file({"bad": object()}, target)
        assert from_json_file(target) == {"generation": 1}
        assert [p.name for p in tmp_path.iterdir()] == [target.name]


class TestTimerAndValidation:
    def test_timer_measures(self):
        with Timer() as timer:
            sum(range(1000))
        assert timer.elapsed >= 0.0
        frozen = timer.elapsed
        assert timer.elapsed == frozen

    def test_validators(self):
        assert check_probability(0.5, "x") == 0.5
        assert check_probability(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_probability(1.1, "x")
        with pytest.raises(ValueError):
            check_probability(-0.1, "x")
