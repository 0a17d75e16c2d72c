"""Benchmark E11 — Geographic gossip on geometric random graphs (reference [6]).

Regenerates the experiment's tables/figures at the configured scale and
asserts the predictions.  See "Fidelity notes" in docs/reports.md for
where the reproduction departs from the paper.
"""


def test_e11_geographic_gossip(run_experiment_benchmark):
    run_experiment_benchmark("E11")
