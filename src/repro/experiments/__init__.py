"""Experiment harness: workloads, specs E1-E10, reporting, CLI."""

from repro.experiments.workloads import bimodal_noise, cut_aligned, spike
from repro.experiments.harness import (
    ExperimentReport,
    ShapeCheck,
    measure_averaging_time,
)
from repro.experiments.specs import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.specs_sweeps import (
    SWEEPS,
    default_sweep_budget,
    get_sweep,
)

__all__ = [
    "bimodal_noise",
    "cut_aligned",
    "spike",
    "ExperimentReport",
    "ShapeCheck",
    "measure_averaging_time",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
    "SWEEPS",
    "default_sweep_budget",
    "get_sweep",
]
