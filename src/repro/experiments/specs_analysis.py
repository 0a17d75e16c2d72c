"""E6-E7 measurement providers: the proof machinery, measured.

E6 measures the stochastic-dominance argument (the per-epoch
log-variance walk, its dominating biased walk, Theorem 3's tail, the
constant settling time); E7 the per-epoch potential inequalities (4)-(8).

A fidelity finding surfaced here (docs/reports.md, note F5): the paper's Lemma 1,
*read as a worst-case operator-norm statement* ``P[||A_k||^2 >= n^-3] <=
1/2``, is false — the epoch operator always maps the cross-cut imbalance
direction to a post-swap spike of norm ~ gain.  What is true (and what
the walk argument actually needs) is the **trajectory** version, the
paper's inequality (8): the variance of the *actual state* contracts by
``poly(n)`` per epoch w.h.p., because the state at an epoch boundary is
never an adversarial unit vector — it is itself a post-swap state whose
spike the next epoch mixes away.  E6 therefore measures the trajectory
increments ``D_k = log(var X(T_{k+1}^+) / var X(T_k^+))`` and couples
*those* with the dominating walk; the operator norms are measured too.

These functions are *providers* for the declarative report pipeline in
:mod:`repro.reports`: they run the measurements and return plain data —
every table, figure, finding and shape check is assembled there, never
here, so E6/E7 report values flow through the same audited path as the
sweep-backed experiments.
"""

from __future__ import annotations

import math

from repro.analysis.dominance import (
    couple_with_dominating_walk,
    dominance_violations,
)
from repro.analysis.epoch_trace import epoch_potential_trace
from repro.analysis.operators import (
    lemma1_empirical_probability,
    sample_epoch_operators,
)
from repro.analysis.random_walk import (
    settling_time_estimate,
    tail_probability_estimate,
    theorem3_tail_bound,
)
from repro.core.epochs import epoch_length_ticks
from repro.experiments.harness import pick, resolve_scale
from repro.experiments.workloads import bimodal_noise
from repro.graphs.composites import dumbbell_graph
from repro.util.mathx import safe_log

#: The simple-walk size Theorem 3's tail is sampled at (E6d).
E6_TAIL_WALK_N = 400
#: The tail quantiles sampled against the Hoeffding envelope (E6d).
E6_TAIL_POINTS = (0.5, 1.0, 1.5, 2.0)
#: The walk sizes whose settling time must stay bounded (E6e).
E6_SETTLE_SIZES = (16, 64, 256, 1024)


def _trajectory_increments(
    pair, *, epoch_length: int, replicates: int, seed: int
) -> "tuple[list[float], list[float]]":
    """Per-epoch log-variance increments (transient D_1, steady D_2).

    Each replicate starts from a fresh noisy cut-aligned state and runs
    two epochs; ``D_k = log(var(T_{k+1}^+) / var(T_k^+))``.
    """
    transient, steady = [], []
    for rep in range(replicates):
        x0 = bimodal_noise(pair.partition, rng=seed + rep, noise=0.5)
        records = epoch_potential_trace(
            pair.partition,
            x0,
            epoch_length=epoch_length,
            n_epochs=2,
            seed=seed + 10_000 + rep,
        )
        transient.append(safe_log(records[0].variance_contraction))
        steady.append(safe_log(records[1].variance_contraction))
    return transient, steady


def e6_measurements(scale: "str | None" = None, seed: int = 23) -> dict:
    """Measure the dominance machinery on one dumbbell (raw data only)."""
    scale = resolve_scale(scale)
    n = pick(scale, smoke=16, default=32, full=64)
    replicates = pick(scale, smoke=16, default=60, full=150)
    n_operator_epochs = pick(scale, smoke=12, default=40, full=100)
    walk_paths = pick(scale, smoke=300, default=2_000, full=10_000)

    pair = dumbbell_graph(n)
    epoch = epoch_length_ticks(pair.partition, constant=3.0)

    transient, steady = _trajectory_increments(
        pair, epoch_length=epoch, replicates=replicates, seed=seed
    )
    walk, dominating = couple_with_dominating_walk(steady, n, seed=seed)
    violations = dominance_violations(walk, dominating)

    samples = sample_epoch_operators(
        pair.partition, epoch_length=epoch, n_epochs=n_operator_epochs,
        seed=seed + 7,
    )

    tails = [
        {
            "s": s,
            "mc": tail_probability_estimate(
                E6_TAIL_WALK_N, s, n_paths=walk_paths, seed=seed + 1
            ),
            "bound": theorem3_tail_bound(s, c=1.0, beta=0.5),
        }
        for s in E6_TAIL_POINTS
    ]
    settle = [
        {
            "n": walk_n,
            "t0": settling_time_estimate(
                walk_n, n_paths=walk_paths, seed=seed + walk_n
            ),
        }
        for walk_n in E6_SETTLE_SIZES
    ]
    return {
        "n": n,
        "epoch": epoch,
        "log_n": math.log(n),
        "replicates": replicates,
        "n_operator_epochs": n_operator_epochs,
        "walk_paths": walk_paths,
        "transient": transient,
        "steady": steady,
        "walk": walk.tolist(),
        "dominating": dominating.tolist(),
        "violations": int(violations),
        "max_norm": max(s.norm for s in samples),
        "lemma1_worst_case": lemma1_empirical_probability(samples),
        "tails": tails,
        "settle": settle,
    }


def e7_measurements(scale: "str | None" = None, seed: int = 29) -> dict:
    """Measure per-epoch contraction statistics across dumbbell sizes."""
    scale = resolve_scale(scale)
    sizes = pick(scale, smoke=[16], default=[16, 32, 64], full=[16, 32, 64, 128])
    replicates = pick(scale, smoke=4, default=10, full=20)

    rows = []
    for index, n in enumerate(sizes):
        pair = dumbbell_graph(n)
        epoch = epoch_length_ticks(pair.partition, constant=3.0)
        sigma_ratios, var_transient, var_steady, mu_margins = [], [], [], []
        for rep in range(replicates):
            x0 = bimodal_noise(
                pair.partition, rng=seed + 1000 * index + rep, noise=0.5
            )
            records = epoch_potential_trace(
                pair.partition,
                x0,
                epoch_length=epoch,
                n_epochs=2,
                seed=seed + 2000 * index + rep,
            )
            first, second = records[0], records[1]
            sigma_ratios.append(first.sigma_contraction)
            var_transient.append(first.variance_contraction)
            var_steady.append(second.variance_contraction)
            denominator = n**1.5 * first.sigma_pre_swap + 1e-12
            mu_margins.append(first.mu_end / denominator)
        rows.append(
            {
                "n": n,
                "epoch": epoch,
                "sigma_ratios": sigma_ratios,
                "var_transient": var_transient,
                "var_steady": var_steady,
                "mu_margins": mu_margins,
            }
        )
    return {"sizes": sizes, "replicates": replicates, "rows": rows}
