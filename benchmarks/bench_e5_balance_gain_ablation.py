"""Benchmark E5 — Balance sweep + swap-gain ablation (fidelity note F1).

Regenerates the experiment's tables/figures at the configured scale and
asserts the paper's shape predictions.  See "Fidelity notes" in
docs/reports.md for where the reproduction departs from the paper.
"""


def test_e5_balance_gain_ablation(run_experiment_benchmark):
    run_experiment_benchmark("E5")
