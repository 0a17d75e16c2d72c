"""Shared experiment machinery: reports, shape checks, measurement helpers.

Every experiment spec produces an :class:`ExperimentReport` — the tables,
rendered figures, measured scalars and *shape checks* that together
reproduce one claim of the paper.  Shape checks encode what the paper
actually predicts (orderings, scaling exponents, bound satisfaction), not
absolute constants (fidelity note F2 in docs/reports.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.engine.averaging_time import (
    AveragingTimeEstimate,
    estimate_averaging_time,
)
from repro.errors import ExperimentError
from repro.graphs.graph import Graph
from repro.util.tables import Table


@dataclass(frozen=True)
class ShapeCheck:
    """One verified prediction: name, pass/fail, human-readable detail."""

    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        """Plain-dict view for serialization."""
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class ExperimentReport:
    """Everything one experiment produced.

    Attributes
    ----------
    experiment_id:
        Short id ("E1"...).
    title:
        One-line description.
    paper_claim:
        What the paper predicts, quoted/paraphrased.
    tables:
        Rendered :class:`Table` objects (the regenerated "tables").
    figures:
        Rendered ASCII figures (the regenerated "figures").
    findings:
        Measured scalars worth quoting (exponents, speedups, bounds).
    checks:
        Shape checks; ``all_checks_passed`` summarizes them.
    """

    experiment_id: str
    title: str
    paper_claim: str
    tables: "list[Table]" = field(default_factory=list)
    figures: "list[str]" = field(default_factory=list)
    findings: dict = field(default_factory=dict)
    checks: "list[ShapeCheck]" = field(default_factory=list)

    @property
    def all_checks_passed(self) -> bool:
        """True when every shape check passed."""
        return all(check.passed for check in self.checks)

    def add_check(self, name: str, passed: bool, detail: str) -> None:
        """Record one shape check."""
        self.checks.append(ShapeCheck(name=name, passed=bool(passed), detail=detail))

    def render(self) -> str:
        """Full human-readable report."""
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper claim: {self.paper_claim}",
            "",
        ]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        for figure in self.figures:
            lines.append(figure)
            lines.append("")
        if self.findings:
            lines.append("findings:")
            for key, value in self.findings.items():
                if isinstance(value, float):
                    lines.append(f"  {key} = {value:.4g}")
                else:
                    lines.append(f"  {key} = {value}")
            lines.append("")
        lines.append("shape checks:")
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{status}] {check.name}: {check.detail}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """Serializable summary (tables as row lists)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "findings": self.findings,
            "checks": [check.to_dict() for check in self.checks],
            "all_checks_passed": self.all_checks_passed,
            "tables": [
                {"columns": table.columns, "rows": table.to_rows()}
                for table in self.tables
            ],
        }


def measure_averaging_time(
    graph: Graph,
    algorithm_factory: "Callable[[], GossipAlgorithm]",
    initial_values: (
        "Sequence[float] | Callable[[np.random.Generator], Sequence[float]]"
    ),
    *,
    n_replicates: int,
    seed: int,
    max_time: float,
    max_events: "int | None" = None,
    n_workers: "int | None" = None,
) -> AveragingTimeEstimate:
    """Thin wrapper over the estimator with experiment-friendly defaults.

    ``n_workers`` defaults to the ``REPRO_WORKERS`` environment variable
    (which the CLI's ``--workers`` flag sets), so a whole experiment run
    fans its replicates out without touching every call site; estimates
    are bit-identical to serial execution for the same seed.
    """
    return estimate_averaging_time(
        graph,
        algorithm_factory,
        initial_values,
        n_replicates=n_replicates,
        seed=seed,
        max_time=max_time,
        max_events=max_events,
        n_workers=n_workers,
    )


# ----------------------------------------------------------------------
# scale presets
# ----------------------------------------------------------------------

#: Named experiment scales.  "smoke" keeps integration tests fast;
#: "default" is what the benchmark suite runs; "full" is closest to the
#: paper's asymptotic regime (minutes of wall time).
SCALES = ("smoke", "default", "full")


def resolve_scale(scale: "str | None") -> str:
    """Validate a scale name, applying the REPRO_SCALE env default."""
    import os

    if scale is None:
        scale = os.environ.get("REPRO_SCALE", "default")
    if scale not in SCALES:
        raise ExperimentError(f"unknown scale {scale!r}; expected one of {SCALES}")
    return scale


def pick(scale: str, *, smoke, default, full):
    """Select a per-scale parameter value."""
    return {"smoke": smoke, "default": default, "full": full}[scale]
