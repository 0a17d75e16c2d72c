"""Benchmark E6 — Stochastic dominance: log-variance walk vs dominating walk.

Regenerates the experiment's tables/figures at the configured scale and
asserts the paper's shape predictions.  See "Fidelity notes" in
docs/reports.md for where the reproduction departs from the paper.
"""


def test_e6_stochastic_dominance(run_experiment_benchmark):
    run_experiment_benchmark("E6")
