"""Shared utilities: RNG management, validation, math helpers, rendering, IO."""

from repro.util.rng import RngFactory, as_generator, spawn_generators
from repro.util.validation import check_probability
from repro.util.mathx import running_mean, safe_log
from repro.util.tables import Table
from repro.util.ascii_plot import line_plot
from repro.util.serialization import from_json_file, to_json_file
from repro.util.timer import Timer

__all__ = [
    "RngFactory",
    "as_generator",
    "spawn_generators",
    "check_probability",
    "running_mean",
    "safe_log",
    "Table",
    "line_plot",
    "from_json_file",
    "to_json_file",
    "Timer",
]
