"""Benchmark E1 — Theorem 1: convex lower bound Omega(n1/|E12|) - T_av vs n.

Regenerates the experiment's tables/figures at the configured scale and
asserts the paper's shape predictions.  See "Fidelity notes" in
docs/reports.md for where the reproduction departs from the paper.
"""


def test_e1_convex_lower_bound(run_experiment_benchmark):
    run_experiment_benchmark("E1")
