"""Benchmark E2 — Theorem 2: Algorithm A inside O(log n (Tvan1+Tvan2)).

Regenerates the experiment's tables/figures at the configured scale and
asserts the paper's shape predictions.  See "Fidelity notes" in
docs/reports.md for where the reproduction departs from the paper.
"""


def test_e2_nonconvex_upper_bound(run_experiment_benchmark):
    run_experiment_benchmark("E2")
