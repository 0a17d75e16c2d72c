"""Benchmark E4 — Cut-width sweep: convex ~ n1/|E12|, A insensitive.

Regenerates the experiment's tables/figures at the configured scale and
asserts the paper's shape predictions.  See "Fidelity notes" in
docs/reports.md for where the reproduction departs from the paper.
"""


def test_e4_cut_width(run_experiment_benchmark):
    run_experiment_benchmark("E4")
