"""E8 measurement provider: every averaging baseline on one dumbbell.

E9 (topology families) and E10 (epoch-constant ablation) are
sweep-backed — their grids are declared in
:mod:`repro.experiments.specs_sweeps` and their reports assembled in
:mod:`repro.reports` from stored :class:`~repro.engine.sweeps
.SweepResult` data.  E8's zoo of algorithm factories does not fit a
grid axis, so it stays a *provider*: this module runs the measurements
and returns plain data; tables, findings and shape checks are assembled
by the declarative pipeline in :mod:`repro.reports`, never here.
"""

from __future__ import annotations

import math

from repro.algorithms.convex import ConvexGossip, RandomConvexGossip
from repro.algorithms.push_sum import PushSumGossip
from repro.algorithms.second_order import (
    AsyncSecondOrderGossip,
    SecondOrderDiffusionSync,
)
from repro.algorithms.two_timescale import TwoTimescaleGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.analysis.bounds import theorem1_lower_bound
from repro.engine.backends import AlgorithmFactory
from repro.experiments.harness import (
    measure_averaging_time,
    pick,
    resolve_scale,
)
from repro.experiments.specs_scaling import (
    MAX_EVENTS,
    _algorithm_a_factory,
    convex_budget,
    nonconvex_budget,
)
from repro.experiments.workloads import cut_aligned
from repro.graphs.composites import dumbbell_graph

#: Rounds cap for the synchronous second-order baseline.
E8_SYNC_MAX_ROUNDS = 50_000


def e8_measurements(scale: "str | None" = None, seed: int = 31) -> dict:
    """Measure every implemented averaging scheme on one dumbbell.

    Returns one row per arm (label, algorithm class, T_av, censored) in
    table order: the class-C members (vanilla, lazy, random-alpha), the
    related-work schemes the paper cites (two-time-scale [1,4];
    second-order diffusion [5], both synchronous-faithful and
    async-adapted), push-sum (outside class C but still cut-limited),
    the synchronous second-order baseline in rounds, and Algorithm A.
    One synchronous round counts as one time unit (every edge ticks once
    per unit time in expectation; see "Fidelity notes" in docs/reports.md).
    """
    from repro.experiments.specs_sweeps import REPORT_REPLICATES

    scale = resolve_scale(scale)
    n = pick(scale, smoke=48, default=64, full=128)
    replicates = REPORT_REPLICATES[scale]

    pair = dumbbell_graph(n)
    x0 = cut_aligned(pair.partition)
    budget = convex_budget(pair)
    bound = theorem1_lower_bound(pair.partition)

    factories = [
        ("vanilla", "convex C", VanillaGossip),
        ("lazy convex (a=0.75)", "convex C", AlgorithmFactory(ConvexGossip, 0.75)),
        ("random convex", "convex C", RandomConvexGossip),
        (
            "two-timescale (const)",
            "convex C",
            AlgorithmFactory(TwoTimescaleGossip, pair.partition, slow_step=0.1),
        ),
        (
            "two-timescale (harmonic)",
            "convex C",
            AlgorithmFactory(
                TwoTimescaleGossip,
                pair.partition, slow_step=0.5, schedule="harmonic", tau=20.0,
            ),
        ),
        ("push-sum", "non-C, convex mass", PushSumGossip),
        (
            "async 2nd-order (b=1.5)",
            "non-C, momentum",
            AlgorithmFactory(AsyncSecondOrderGossip, 1.5),
        ),
    ]
    rows = []
    for index, (label, klass, factory) in enumerate(factories):
        estimate = measure_averaging_time(
            pair.graph, factory, x0,
            n_replicates=replicates, seed=seed + 10 * index,
            max_time=budget, max_events=MAX_EVENTS,
        )
        rows.append(
            {
                "label": label,
                "klass": klass,
                "tav": estimate.estimate,
                "censored": estimate.is_censored,
            }
        )

    # Synchronous second-order diffusion: rounds ~ time units.
    sync = SecondOrderDiffusionSync(pair.graph)
    rounds = sync.rounds_to_ratio(
        x0, target_ratio=math.e**-2, max_rounds=E8_SYNC_MAX_ROUNDS
    )
    rows.append(
        {
            "label": "sync 2nd-order [5]",
            "klass": "non-C, momentum",
            "tav": float(rounds),
            "censored": rounds >= E8_SYNC_MAX_ROUNDS,
        }
    )

    factory_a, _ = _algorithm_a_factory(pair)
    est_a = measure_averaging_time(
        pair.graph, factory_a, x0,
        n_replicates=replicates, seed=seed + 999,
        max_time=nonconvex_budget(pair), max_events=MAX_EVENTS,
    )
    rows.append(
        {
            "label": "algorithm A",
            "klass": "non-convex cut swap",
            "tav": est_a.estimate,
            "censored": est_a.is_censored,
        }
    )
    return {"n": n, "bound": bound, "rows": rows}
