"""The compiled declared-rule loop: its fallback, its cache and its checks.

``Simulator.run`` runs every declared rule on the C loop built by
:mod:`repro.engine.compiled`.  Without a working C compiler the run takes
the generic loop with identical results and one warning per process; the
build cache survives concurrent cold compiles and an unwritable cache
directory.  Bit-identity of each rule against the generic loop is the
Hypothesis property in ``tests/property/test_prop_declared_rules.py``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.push_sum import PushSumGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.engine import compiled
from repro.engine.results import results_identical
from repro.engine.simulator import Simulator, declared_runs
from repro.errors import SimulationError
from repro.graphs.composites import dumbbell_graph

SRC = Path(compiled.__file__).resolve().parents[2]

needs_compiler = pytest.mark.skipif(
    shutil.which((os.environ.get("CC") or "cc").split()[0]) is None,
    reason="no C compiler",
)


def run_cases():
    """One run each of vanilla, push-sum and Algorithm A, with kept state."""
    pair = dumbbell_graph(12)
    values = np.random.default_rng(5).normal(size=pair.graph.n_vertices)
    outcomes = []
    for algorithm in (
        VanillaGossip(),
        PushSumGossip(),
        NonConvexSparseCutGossip(pair.partition, epoch_length=3),
    ):
        simulator = Simulator(
            pair.graph, algorithm, values, seed=7, recompute_every=50
        )
        result = simulator.run(max_events=3000, thresholds=(0.5, 0.01))
        kept = getattr(algorithm, "swap_count", None)
        if isinstance(algorithm, PushSumGossip):
            kept = algorithm.total_mass()
        outcomes.append((result, kept))
    return outcomes


@pytest.fixture
def fresh_loader():
    """Forget the process's loaded loop before and after the test."""
    compiled.load_loop.cache_clear()
    yield
    compiled.load_loop.cache_clear()


class TestFallback:
    @needs_compiler
    def test_no_compiler_runs_generic_loop_with_one_warning(
        self, monkeypatch, tmp_path, fresh_loader
    ):
        expected = run_cases()
        assert compiled.load_loop() is not None
        compiled.load_loop.cache_clear()
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        before = dict(declared_runs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = run_cases()
            second = run_cases()
        loop_warnings = [
            w
            for w in caught
            if w.category is RuntimeWarning and "compiled event loop" in str(w.message)
        ]
        assert len(loop_warnings) == 1
        assert declared_runs["fallback"] == before["fallback"] + 6
        assert declared_runs["compiled"] == before["compiled"]
        for (want, want_kept), (got, got_kept), (again, _) in zip(
            expected, first, second
        ):
            assert results_identical(want, got)
            assert want.values.tobytes() == got.values.tobytes()
            assert results_identical(got, again)
            assert want_kept == got_kept
        assert list(tmp_path.iterdir()) == []

    def test_failing_compile_falls_back(self, monkeypatch, tmp_path, fresh_loader):
        # A "compiler" that answers --version but fails every build.
        fake = tmp_path / "fake-cc"
        fake.write_text(
            '#!/bin/sh\n[ "$1" = --version ] && echo fake-cc 1.0 && exit 0\n'
            "exit 1\n"
        )
        fake.chmod(0o755)
        monkeypatch.setenv("CC", str(fake))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        with pytest.warns(RuntimeWarning, match="compiled event loop"):
            assert compiled.load_loop() is None
        assert list((tmp_path / "cache" / "repro").iterdir()) == []

    @needs_compiler
    def test_compiled_runs_are_counted(self, fresh_loader):
        before = declared_runs["compiled"]
        run_cases()
        assert declared_runs["compiled"] == before + 3


@needs_compiler
class TestCache:
    def test_unwritable_cache_dir_falls_back_to_temp_dir(
        self, monkeypatch, tmp_path, fresh_loader
    ):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        temporary = tmp_path / "tmp"
        temporary.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(tempfile, "tempdir", str(temporary))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compiled.load_loop() is not None
        (cache,) = temporary.iterdir()
        (library,) = cache.iterdir()
        assert library.name.startswith("loop-")

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/maps")
    def test_concurrent_cold_compiles_publish_one_library(self, tmp_path):
        child = (
            "import json, pathlib, numpy as np\n"
            "from repro.engine.compiled import load_loop\n"
            "from repro.engine.simulator import declared_runs\n"
            "from repro.graphs.composites import dumbbell_graph\n"
            "from repro.algorithms.push_sum import PushSumGossip\n"
            "from repro.engine.simulator import Simulator\n"
            "assert load_loop() is not None\n"
            "maps = pathlib.Path('/proc/self/maps').read_text().split()\n"
            "pair = dumbbell_graph(12)\n"
            "x = np.random.default_rng(5).normal(size=pair.graph.n_vertices)\n"
            "r = Simulator(pair.graph, PushSumGossip(), x, seed=7).run("
            "max_events=3000)\n"
            "print(json.dumps({'libraries': sorted({p for p in maps "
            "if '/loop-' in p}), 'values': r.values.tobytes().hex(), "
            "'compiled': declared_runs['compiled']}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
        children = [
            subprocess.Popen(
                [sys.executable, "-W", "error::RuntimeWarning", "-c", child],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        outputs = []
        for process in children:
            stdout, _ = process.communicate(timeout=120)
            assert process.returncode == 0
            outputs.append(json.loads(stdout))
        first, second = outputs
        assert first["compiled"] == second["compiled"] == 1
        pair = dumbbell_graph(12)
        x = np.random.default_rng(5).normal(size=pair.graph.n_vertices)
        here = Simulator(pair.graph, PushSumGossip(), x, seed=7).run(max_events=3000)
        assert first["values"] == second["values"] == here.values.tobytes().hex()
        (library,) = (tmp_path / "repro").iterdir()
        assert first["libraries"] == second["libraries"] == [str(library)]


class TestClockChecks:
    class BadClock:
        """A clock that ticks an edge the graph does not have."""

        def __init__(self, n_edges: int, edge: int) -> None:
            self.n_edges = n_edges
            self.edge = edge

        def next_batch(self, size: int):
            return np.arange(1.0, size + 1.0), np.full(size, self.edge)

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_edge_id_outside_graph_raises(self, side):
        pair = dumbbell_graph(8)
        n_edges = pair.graph.n_edges
        clock = self.BadClock(n_edges, -1 if side == "below" else n_edges)
        values = np.arange(pair.graph.n_vertices, dtype=float)
        simulator = Simulator(pair.graph, VanillaGossip(), values, clock=clock)
        with pytest.raises(SimulationError, match="edge id"):
            simulator.run(max_events=10)

    @needs_compiler
    def test_rule_that_does_not_fit_the_graph_raises(self):
        class SwapOffTheGraph(NonConvexSparseCutGossip):
            """Declares a swap whose endpoint is not a vertex."""

            def pairwise_rule(self):
                rule = super().pairwise_rule()
                swap = dataclasses.replace(rule.swaps[0], b=rule.graph.n_vertices)
                return dataclasses.replace(rule, swaps=(swap,))

        pair = dumbbell_graph(8)
        algorithm = SwapOffTheGraph(pair.partition, epoch_length=2)
        values = np.arange(pair.graph.n_vertices, dtype=float)
        simulator = Simulator(pair.graph, algorithm, values, seed=0)
        with pytest.raises(SimulationError, match="does not fit"):
            simulator.run(max_events=10)
