"""Benchmark E3 — Headline dumbbell: Omega(n) vs O(log n).

Regenerates the experiment's tables/figures at the configured scale and
asserts the paper's shape predictions.  See "Fidelity notes" in
docs/reports.md for where the reproduction departs from the paper.
"""


def test_e3_dumbbell_headline(run_experiment_benchmark):
    run_experiment_benchmark("E3")
