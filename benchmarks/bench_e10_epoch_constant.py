"""Benchmark E10 — Epoch-constant C ablation (fidelity note F4).

Regenerates the experiment's tables/figures at the configured scale and
asserts the paper's shape predictions.  See "Fidelity notes" in
docs/reports.md for where the reproduction departs from the paper.
"""


def test_e10_epoch_constant(run_experiment_benchmark):
    run_experiment_benchmark("E10")
