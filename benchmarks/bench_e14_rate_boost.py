"""Benchmark E14 — Bandwidth-vs-algorithm: boosted cut clock vs non-convex swap.

Regenerates the experiment's tables/figures at the configured scale and
asserts the predictions.  See "Fidelity notes" in docs/reports.md for
where the reproduction departs from the paper.
"""


def test_e14_rate_boost(run_experiment_benchmark):
    run_experiment_benchmark("E14")
