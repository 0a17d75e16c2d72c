"""Benchmark E9 — Topology robustness + well-connectedness regime.

Regenerates the experiment's tables/figures at the configured scale and
asserts the paper's shape predictions.  See "Fidelity notes" in
docs/reports.md for where the reproduction departs from the paper.
"""


def test_e9_topologies(run_experiment_benchmark):
    run_experiment_benchmark("E9")
