"""Benchmark E13 — Failure injection: designated-edge death and failover.

Regenerates the experiment's tables/figures at the configured scale and
asserts the predictions.  See "Fidelity notes" in docs/reports.md for
where the reproduction departs from the paper.
"""


def test_e13_failure_injection(run_experiment_benchmark):
    run_experiment_benchmark("E13")
