"""Benchmark E7 — Within-epoch contraction (inequalities 4-8).

Regenerates the experiment's tables/figures at the configured scale and
asserts the paper's shape predictions.  See "Fidelity notes" in
docs/reports.md for where the reproduction departs from the paper.
"""


def test_e7_epoch_contraction(run_experiment_benchmark):
    run_experiment_benchmark("E7")
