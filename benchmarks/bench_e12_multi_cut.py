"""Benchmark E12 — Multi-cut extension: chains of cliques.

Regenerates the experiment's tables/figures at the configured scale and
asserts the predictions.  See "Fidelity notes" in docs/reports.md for
where the reproduction departs from the paper.
"""


def test_e12_multi_cut(run_experiment_benchmark):
    run_experiment_benchmark("E12")
