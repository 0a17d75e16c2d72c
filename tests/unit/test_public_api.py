"""Sanity tests of the top-level public API surface and its doctests."""

from __future__ import annotations

import ast
import doctest
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import repro

REPO = Path(__file__).resolve().parents[2]

#: Where a use of a public definition counts as a caller.
CALLER_TREES = ("src", "examples", "benchmarks", "perfbench")


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    @pytest.mark.parametrize(
        "package",
        ["repro.analysis", "repro.clocks", "repro.experiments", "repro.graphs",
         "repro.util"],
    )
    def test_subpackage_exports_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.__all__ lists missing {name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_quickstart_path(self):
        pair = repro.dumbbell_graph(32)
        sca = repro.SparseCutAveraging(pair.graph, partition=pair.partition)
        result = sca.run([float(i) for i in range(32)], seed=0,
                         target_ratio=1e-6)
        assert result.values.mean() == pytest.approx(15.5)

    def test_single_vertex_side_is_handled(self):
        """Degenerate-but-legal: a one-node side of the cut (Tvan = 0)."""
        pair = repro.two_cliques(1, 8, n_bridges=1)
        sca = repro.SparseCutAveraging(pair.graph, partition=pair.partition)
        assert sca.epoch_length() >= 1
        x0 = np.arange(9, dtype=float)
        result = sca.run(x0, seed=1, target_ratio=1e-6, max_time=500.0)
        assert result.stopped_by == "target_ratio"
        assert np.allclose(result.values, x0.mean(), atol=1e-2)

    def test_available_algorithms_cover_the_paper(self):
        names = repro.available_algorithms()
        for required in ("vanilla", "algorithm-a", "algorithm-a-resilient",
                         "two-timescale", "push-sum", "geographic"):
            assert required in names


@pytest.mark.parametrize(
    "module_name",
    [
        "repro",
        "repro.util.tables",
        "repro.util.timer",
        "repro.util.rng",
        "repro.core.sparse_cut_averaging",
        "repro.algorithms.registry",
    ],
)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"


def _public_definitions():
    """``(path, line, name)`` of every top-level public def/class under
    ``src/repro``, ``__init__`` re-export modules excluded."""
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                yield path, node.lineno, node.name


def test_every_public_definition_has_a_caller():
    """No feature without a caller: every public definition is named, as a
    whole word, somewhere in the code that ships or measures the library
    (tests, ``__init__`` re-exports and the defining line do not count)."""
    uses: dict[str, set] = {}
    for tree in CALLER_TREES:
        for path in (REPO / tree).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            text = path.read_text(encoding="utf-8")
            for number, line in enumerate(text.splitlines(), 1):
                for word in set(re.findall(r"\w+", line)):
                    uses.setdefault(word, set()).add((path, number))
    uncalled = [
        f"{module.relative_to(REPO)}: {name}"
        for module, def_line, name in _public_definitions()
        if not uses.get(name, set()) - {(module, def_line)}
    ]
    assert not uncalled, "public definitions with no caller:\n" + "\n".join(
        uncalled
    )
