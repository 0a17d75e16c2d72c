"""Sweep declarations: the paper's grid experiments as :class:`SweepSpec`.

Every grid-shaped claim — convex lower bound vs size (E1), non-convex
upper bound vs size (E2), the dumbbell headline (E3), cut width (E4),
balance/gain ablation (E5), topology families (E9) and the
epoch-constant ablation (E10) — is declared here once so the sweep
scheduler (:mod:`repro.engine.sweeps`) can fan the **whole grid** out
over one worker pool.  The per-scale grid values defined here are the
single source of truth — the report functions in
:mod:`repro.experiments.specs_scaling` / ``specs_baselines`` consume
:class:`~repro.engine.sweeps.SweepResult` aggregations of these same
grids, so the sweep path and the report path cannot drift apart.

Every builder is a module-level function returning a
:class:`~repro.engine.sweeps.PointConfig` built from picklable pieces
(:class:`~repro.engine.backends.AlgorithmFactory`, plain graphs), so
sweep replicates fan out to worker processes unchanged — and the
runner's shared-state shipping can install each point's graph once per
worker.

The kernel layer (:mod:`repro.engine.kernels`) composes with every
sweep declared here: the convex arms (``"vanilla"``, ``"convex"``)
take the dense lockstep loop and the ``"algorithm_a"`` arms take the
epoch-aware generalized loop (per-row epoch state machine over the
designated edge), so every sweep advances whole replicate windows in
numpy lockstep — with bit-identical :class:`SweepResult` output
either way, so ``--kernel`` is purely a throughput knob.  Run
``repro-experiments kernel explain <sweep-id>`` for per-configuration
eligibility verdicts.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.algorithms.convex import ConvexGossip
from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.resilient import ResilientSparseCutGossip
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.unreliable import (
    FailingPoissonClockFactory,
    LossyPoissonClockFactory,
)
from repro.core.epochs import epoch_length_ticks
from repro.engine.backends import AlgorithmFactory
from repro.engine.sweeps import (
    PointConfig,
    ReplicateBudget,
    SweepAxis,
    SweepSpec,
)
from repro.errors import ExperimentError
from repro.experiments.harness import resolve_scale
from repro.experiments.specs_scaling import (
    MAX_EVENTS,
    _algorithm_a_factory,
    convex_budget,
    nonconvex_budget,
)
from repro.experiments.workloads import cut_aligned
from repro.graphs.composites import (
    BridgedPair,
    dumbbell_graph,
    two_cliques,
    two_erdos_renyi,
    two_expanders,
    two_grids,
)

#: The algorithm axis shared by every ported sweep: the paper's headline
#: comparison is always convex baseline vs Algorithm A.
ALGORITHMS = ("vanilla", "algorithm_a")

# Per-scale grid values (single source of truth; the report functions
# read these same tables).
E1_SIZES = {
    "smoke": (24, 48),
    "default": (32, 64, 128, 256),
    "full": (64, 128, 256, 512),
}
#: E1's algorithm axis: the two convex class-C members the report plots.
E1_ALGORITHMS = ("vanilla", "lazy")
#: Per-scale expander degree used by every expander-pair grid.
EXPANDER_DEGREE = {"smoke": 4, "default": 8, "full": 8}
E5_FRACTIONS = {
    "smoke": (0.25, 0.5),
    "default": (0.125, 0.25, 0.375, 0.5),
    "full": (0.125, 0.25, 0.375, 0.5),
}
E5_TOTAL = {"smoke": 32, "default": 128, "full": 256}
#: E5's gain axis: the documented deviation (fidelity note F1) vs the paper.
E5_GAINS = ("exact", "paper")
E10_CONSTANTS = {
    "smoke": (0.02, 3.0),
    "default": (0.02, 0.2, 1.0, 3.0, 10.0),
    "full": (0.02, 0.2, 1.0, 3.0, 10.0, 30.0),
}
E10_GRID_DIMS = {"smoke": (3, 3), "default": (4, 6), "full": (5, 8)}
E3_SIZES = {
    "smoke": (32, 48),
    "default": (32, 64, 128),
    "full": (32, 64, 128, 256),
}
E4_WIDTHS = {
    "smoke": (1, 4),
    "default": (1, 2, 4, 8, 16),
    "full": (1, 2, 4, 8, 16, 32),
}
E4_HALF = {"smoke": 16, "default": 64, "full": 128}
E9_FAMILIES = {
    "smoke": ("clique", "grid"),
    "default": ("clique", "expander", "erdos_renyi", "grid"),
    "full": ("clique", "expander", "erdos_renyi", "grid"),
}
E9_HALF = {"smoke": 16, "default": 48, "full": 96}
E9_GRID_DIMS = {"smoke": (3, 3), "default": (6, 8), "full": (6, 8)}
#: E13's configuration axis: what runs against the unreliable clocks.
E13_CONFIGS = (
    "vanilla_failing",
    "algorithm_a_failing",
    "resilient_failing",
    "vanilla_lossy",
    "vanilla_healthy",
)
E13_HALF = {"smoke": 12, "default": 24, "full": 48}
#: When the designated cut edge dies (simulation time units).
E13_DEATH_TIME = 2.0
#: Per-tick message-loss probability for the lossy arm.
E13_LOSS_RATE = 0.3
#: Cut width of the E13 instance: two spare bridges survive the death.
E13_BRIDGES = 3


def _point_config(pair: BridgedPair, algorithm: str) -> PointConfig:
    """The measurement every ported sweep point runs: T_av of one
    algorithm on one bridged pair under the cut-aligned workload.

    Both arms vectorize: ``"vanilla"`` through the dense lockstep loop,
    ``"algorithm_a"`` through the epoch-aware generalized loop — see
    ``docs/kernels.md``.
    """
    x0 = cut_aligned(pair.partition)
    if algorithm == "vanilla":
        factory: "Callable[..., Any]" = VanillaGossip
        budget = convex_budget(pair)
    elif algorithm == "algorithm_a":
        factory, _ = _algorithm_a_factory(pair)
        # Grid-like families mix slowly; never give A less time than the
        # convex scale needs (mirrors the E9 report function).
        budget = max(nonconvex_budget(pair), convex_budget(pair))
    else:
        raise ExperimentError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    return PointConfig(
        graph=pair.graph,
        algorithm_factory=factory,
        initial_values=x0,
        max_time=budget,
        max_events=MAX_EVENTS,
    )


# ----------------------------------------------------------------------
# point builders (module-level: the configs they build must pickle)
# ----------------------------------------------------------------------


def build_size_pair(n: int, *, degree: int, seed: int) -> BridgedPair:
    """Construct one E1/E2 expander pair of total size ``n``, one bridge.

    Shared by the E1/E2 sweep builders and their report functions — the
    graph seed is keyed by ``n`` itself (not the grid position), so both
    paths measure the same instance even under ``--axis`` overrides.
    """
    half = int(n) // 2
    return two_expanders(
        half, half, degree=int(degree), n_bridges=1,
        seed=int(seed) + int(n),
    )


def e1_build_point(
    *, n: int, algorithm: str, degree: int, seed: int
) -> PointConfig:
    """E1 convex-bound point: one class-C member on a single-bridge pair."""
    pair = build_size_pair(n, degree=degree, seed=seed)
    if algorithm == "vanilla":
        factory: "Callable[..., Any]" = VanillaGossip
    elif algorithm == "lazy":
        factory = AlgorithmFactory(ConvexGossip, 0.75)
    else:
        raise ExperimentError(
            f"unknown algorithm {algorithm!r}; expected one of {E1_ALGORITHMS}"
        )
    return PointConfig(
        graph=pair.graph,
        algorithm_factory=factory,
        initial_values=cut_aligned(pair.partition),
        max_time=convex_budget(pair),
        max_events=MAX_EVENTS,
    )


def e2_build_point(*, n: int, degree: int, seed: int) -> PointConfig:
    """E2 envelope point: Algorithm A on a single-bridge pair of size ``n``.

    E2 keeps its own graph seed (11, vs E1's 7 — the legacy report
    functions' seeds), so the two experiments measure independently
    drawn expander pairs of the same shape, not one shared instance.
    """
    pair = build_size_pair(n, degree=degree, seed=seed)
    factory, _ = _algorithm_a_factory(pair)
    return PointConfig(
        graph=pair.graph,
        algorithm_factory=factory,
        initial_values=cut_aligned(pair.partition),
        max_time=nonconvex_budget(pair),
        max_events=MAX_EVENTS,
    )


def e3_build_point(*, n: int, algorithm: str) -> PointConfig:
    """E3 dumbbell headline point: two n/2-cliques joined by one edge."""
    return _point_config(dumbbell_graph(int(n)), algorithm)


def build_balance_pair(
    fraction: float, *, total: int, degree: int, seed: int
) -> BridgedPair:
    """Construct one E5 pair with ``n1 ~ fraction * total`` vertices.

    ``n1`` is rounded to even so ``n1 * degree`` stays even for the
    expander pairing model; the graph seed is keyed by the resulting
    ``n1``, so report and sweep measure the same instance.
    """
    n1 = int(round(int(total) * float(fraction)))
    n1 += n1 % 2
    n2 = int(total) - n1
    return two_expanders(n1, n2, degree=int(degree), n_bridges=1, seed=int(seed) + n1)


def e5_build_point(
    *, fraction: float, gain: str, total: int, degree: int, seed: int
) -> PointConfig:
    """E5 ablation point: Algorithm A under one swap gain at one balance."""
    if gain not in E5_GAINS:
        raise ExperimentError(f"unknown gain {gain!r}; expected one of {E5_GAINS}")
    pair = build_balance_pair(fraction, total=total, degree=degree, seed=seed)
    factory, _ = _algorithm_a_factory(pair, gain=gain)
    return PointConfig(
        graph=pair.graph,
        algorithm_factory=factory,
        initial_values=cut_aligned(pair.partition),
        max_time=nonconvex_budget(pair),
        max_events=MAX_EVENTS,
    )


def build_epoch_grid_pair(*, grid_rows: int, grid_cols: int) -> BridgedPair:
    """The E10 instance: a single-bridge pair of slow-mixing grids."""
    return two_grids(int(grid_rows), int(grid_cols), n_bridges=1)


def e10_build_point(
    *, constant: float, grid_rows: int, grid_cols: int
) -> PointConfig:
    """E10 ablation point: Algorithm A with epoch constant ``C``.

    The run budget never shrinks below the ``C = 3`` budget (a tiny C
    shortens the *epoch*, not the time the swap needs), and never below
    the convex scale (grids mix slowly).
    """
    pair = build_epoch_grid_pair(grid_rows=grid_rows, grid_cols=grid_cols)
    factory, _ = _algorithm_a_factory(pair, constant=float(constant))
    budget = max(
        nonconvex_budget(pair, constant=max(float(constant), 3.0)),
        convex_budget(pair),
    )
    return PointConfig(
        graph=pair.graph,
        algorithm_factory=factory,
        initial_values=cut_aligned(pair.partition),
        max_time=budget,
        max_events=MAX_EVENTS,
    )


def build_width_pair(
    width: int, *, half: int, degree: int, seed: int
) -> BridgedPair:
    """Construct one E4 expander pair with ``width`` bridges.

    Shared by the E4 sweep builder and the E4 report function — the
    graph seed is keyed by the width itself (not the grid position), so
    both paths measure the same instance even under ``--axis`` overrides.
    """
    return two_expanders(
        int(half), int(half), degree=int(degree),
        n_bridges=int(width), seed=int(seed) + int(width),
    )


def e4_build_point(
    *, width: int, algorithm: str, half: int, degree: int, seed: int
) -> PointConfig:
    """E4 cut-width point: expander pair with ``width`` bridges."""
    pair = build_width_pair(width, half=half, degree=degree, seed=seed)
    return _point_config(pair, algorithm)


def build_family_pair(
    family: str,
    *,
    half: int,
    grid_rows: int,
    grid_cols: int,
    degree: int,
    seed: int,
) -> BridgedPair:
    """Construct one E9 sparse-cut family instance.

    Shared by the E9 sweep builder and the E9 report function, so the
    two paths measure the same graphs.
    """
    half = int(half)
    if family == "clique":
        return dumbbell_graph(2 * half)
    if family == "expander":
        return two_expanders(half, degree=int(degree), n_bridges=1, seed=int(seed))
    if family == "erdos_renyi":
        return two_erdos_renyi(half, n_bridges=1, seed=int(seed) + 1)
    if family == "grid":
        return two_grids(int(grid_rows), int(grid_cols), n_bridges=1)
    raise ExperimentError(
        f"unknown family {family!r}; expected clique/expander/"
        "erdos_renyi/grid"
    )


def e9_build_point(
    *,
    family: str,
    algorithm: str,
    half: int,
    grid_rows: int,
    grid_cols: int,
    degree: int,
    seed: int,
) -> PointConfig:
    """E9 topology point: one sparse-cut family instance."""
    pair = build_family_pair(
        family, half=half, grid_rows=grid_rows, grid_cols=grid_cols,
        degree=degree, seed=seed,
    )
    return _point_config(pair, algorithm)


def e13_build_point(*, config: str, half: int) -> PointConfig:
    """E13 failure-injection point: one configuration vs unreliable clocks.

    The instance is a clique pair with :data:`E13_BRIDGES` bridges; the
    failing arms kill the designated edge's clock at
    :data:`E13_DEATH_TIME`, the lossy arm drops each tick with
    probability :data:`E13_LOSS_RATE`, and ``vanilla_healthy`` is the
    unperturbed baseline the slowdown claim divides by.
    """
    half = int(half)
    pair = two_cliques(half, half, n_bridges=E13_BRIDGES)
    epoch = epoch_length_ticks(pair.partition, constant=3.0)
    failing_clock = FailingPoissonClockFactory(
        pair.graph.n_edges, {pair.designated_edge: E13_DEATH_TIME}
    )
    if config == "vanilla_failing":
        factory: "Callable[..., Any]" = VanillaGossip
        clock: "Any | None" = failing_clock
    elif config == "algorithm_a_failing":
        factory = AlgorithmFactory(
            NonConvexSparseCutGossip, pair.partition, epoch_length=epoch
        )
        clock = failing_clock
    elif config == "resilient_failing":
        factory = AlgorithmFactory(
            ResilientSparseCutGossip, pair.partition, epoch_length=epoch
        )
        clock = failing_clock
    elif config == "vanilla_lossy":
        factory = VanillaGossip
        clock = LossyPoissonClockFactory(pair.graph.n_edges, E13_LOSS_RATE)
    elif config == "vanilla_healthy":
        factory = VanillaGossip
        clock = None
    else:
        raise ExperimentError(
            f"unknown config {config!r}; expected one of {E13_CONFIGS}"
        )
    return PointConfig(
        graph=pair.graph,
        algorithm_factory=factory,
        initial_values=cut_aligned(pair.partition),
        clock_factory=clock,
        max_time=3.0 * convex_budget(pair),
        max_events=MAX_EVENTS,
    )


# ----------------------------------------------------------------------
# sweep declarations
# ----------------------------------------------------------------------


def e1_sweep(scale: "str | None" = None, seed: int = 7) -> SweepSpec:
    """E1 as a grid: total size x convex algorithm on expander pairs."""
    scale = resolve_scale(scale)
    return SweepSpec(
        name="E1",
        axes=(
            SweepAxis("n", E1_SIZES[scale]),
            SweepAxis("algorithm", E1_ALGORITHMS),
        ),
        builder=e1_build_point,
        base_params={"degree": EXPANDER_DEGREE[scale], "seed": seed},
    )


def e2_sweep(scale: "str | None" = None, seed: int = 11) -> SweepSpec:
    """E2 as a grid: Algorithm A across the same sizes E1 sweeps."""
    scale = resolve_scale(scale)
    return SweepSpec(
        name="E2",
        axes=(SweepAxis("n", E1_SIZES[scale]),),
        builder=e2_build_point,
        base_params={"degree": EXPANDER_DEGREE[scale], "seed": seed},
    )


def e5_sweep(scale: "str | None" = None, seed: int = 19) -> SweepSpec:
    """E5 as a grid: partition balance x swap gain at fixed total size."""
    scale = resolve_scale(scale)
    return SweepSpec(
        name="E5",
        axes=(
            SweepAxis("fraction", E5_FRACTIONS[scale]),
            SweepAxis("gain", E5_GAINS),
        ),
        builder=e5_build_point,
        base_params={
            "total": E5_TOTAL[scale],
            "degree": EXPANDER_DEGREE[scale],
            "seed": seed,
        },
    )


def e10_sweep(scale: "str | None" = None, seed: int = 41) -> SweepSpec:
    """E10 as a grid: the paper's epoch constant C on a grid pair.

    ``seed`` is accepted for registry uniformity but unused: the grid
    pair is deterministic and Monte-Carlo streams come from the sweep
    root seed, not the declaration.
    """
    scale = resolve_scale(scale)
    rows, cols = E10_GRID_DIMS[scale]
    return SweepSpec(
        name="E10",
        axes=(SweepAxis("constant", E10_CONSTANTS[scale]),),
        builder=e10_build_point,
        base_params={"grid_rows": rows, "grid_cols": cols},
    )


def e3_sweep(scale: "str | None" = None, seed: int = 13) -> SweepSpec:
    """E3 as a grid: dumbbell size x algorithm."""
    scale = resolve_scale(scale)
    return SweepSpec(
        name="E3",
        axes=(
            SweepAxis("n", E3_SIZES[scale]),
            SweepAxis("algorithm", ALGORITHMS),
        ),
        builder=e3_build_point,
    )


def e4_sweep(scale: "str | None" = None, seed: int = 17) -> SweepSpec:
    """E4 as a grid: cut width x algorithm at fixed n."""
    scale = resolve_scale(scale)
    return SweepSpec(
        name="E4",
        axes=(
            SweepAxis("width", E4_WIDTHS[scale]),
            SweepAxis("algorithm", ALGORITHMS),
        ),
        builder=e4_build_point,
        base_params={
            "half": E4_HALF[scale],
            "degree": EXPANDER_DEGREE[scale],
            "seed": seed,
        },
    )


def e9_sweep(scale: "str | None" = None, seed: int = 37) -> SweepSpec:
    """E9 as a grid: sparse-cut family x algorithm."""
    scale = resolve_scale(scale)
    rows, cols = E9_GRID_DIMS[scale]
    return SweepSpec(
        name="E9",
        axes=(
            SweepAxis("family", E9_FAMILIES[scale]),
            SweepAxis("algorithm", ALGORITHMS),
        ),
        builder=e9_build_point,
        base_params={
            "half": E9_HALF[scale],
            "grid_rows": rows,
            "grid_cols": cols,
            "degree": EXPANDER_DEGREE[scale],
            "seed": seed,
        },
    )


def e13_sweep(scale: "str | None" = None, seed: int = 53) -> SweepSpec:
    """E13 as a grid: failure-injection configurations on one clique pair.

    ``seed`` is accepted for registry uniformity but unused: the clique
    pair is deterministic and Monte-Carlo streams (including the clock
    death/loss draws) come from the sweep root seed.
    """
    scale = resolve_scale(scale)
    return SweepSpec(
        name="E13",
        axes=(SweepAxis("config", E13_CONFIGS),),
        builder=e13_build_point,
        base_params={"half": E13_HALF[scale]},
    )


#: Registered sweeps, keyed by experiment id.
SWEEPS: "dict[str, Callable[..., SweepSpec]]" = {
    "E1": e1_sweep,
    "E2": e2_sweep,
    "E3": e3_sweep,
    "E4": e4_sweep,
    "E5": e5_sweep,
    "E9": e9_sweep,
    "E10": e10_sweep,
    "E13": e13_sweep,
}


def get_sweep(sweep_id: str, *, scale: "str | None" = None,
              seed: "int | None" = None) -> SweepSpec:
    """Look up and instantiate a sweep declaration (case-insensitive)."""
    key = sweep_id.upper()
    if key not in SWEEPS:
        raise ExperimentError(
            f"no sweep declared for {sweep_id!r}; available: {sorted(SWEEPS)}"
        )
    kwargs: "dict[str, Any]" = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    return SWEEPS[key](**kwargs)


#: Per-scale replicate counts the report path has always used.
REPORT_REPLICATES = {"smoke": 3, "default": 6, "full": 10}


def report_budget(scale: "str | None" = None) -> ReplicateBudget:
    """Fixed budget matching the legacy report replicate counts.

    The rewritten report functions (E1/E2/E5/E10) run their grids through
    the sweep scheduler under this budget, so a report costs exactly what
    the one-configuration-at-a-time path used to cost.
    """
    return ReplicateBudget.fixed(REPORT_REPLICATES[resolve_scale(scale)])


def default_sweep_budget(scale: "str | None" = None) -> ReplicateBudget:
    """Scale-matched adaptive budget.

    The floor matches the legacy fixed replicate count of each scale, so
    a sweep is never *less* certain than the report path; the cap gives
    the adaptive rule room to tighten noisy grid points.
    """
    scale = resolve_scale(scale)
    floor = REPORT_REPLICATES[scale]
    return ReplicateBudget.adaptive(
        target_ci=0.5,
        min_replicates=floor,
        max_replicates=4 * floor,
        round_size=max(floor // 2, 1),
    )


def resolve_sweep_budget(
    scale: "str | None" = None,
    *,
    replicates: "int | None" = None,
    target_ci: "float | None" = None,
    min_replicates: "int | None" = None,
    max_replicates: "int | None" = None,
    round_size: "int | None" = None,
) -> ReplicateBudget:
    """Budget resolution behind the ``sweep`` command's budget flags.

    A ``replicates`` value wins outright (fixed budget, adaptive rule
    disabled); otherwise any adaptive overrides overlay the
    scale-matched :func:`default_sweep_budget`.
    """
    if replicates is not None:
        return ReplicateBudget.fixed(replicates)
    base = default_sweep_budget(scale)
    overrides = {
        key: value
        for key, value in {
            "target_ci": target_ci,
            "min_replicates": min_replicates,
            "max_replicates": max_replicates,
            "round_size": round_size,
        }.items()
        if value is not None
    }
    if not overrides:
        return base
    merged = base.to_dict()
    merged.update(overrides)
    return ReplicateBudget.from_dict(merged)


def axis_override_from_text(text: str) -> "tuple[str, list]":
    """Parse a CLI ``--axis name=v1,v2,...`` override.

    Values are coerced to int, then float, then kept as strings — the
    same literal forms the grid tables above use.
    """
    if "=" not in text:
        raise ExperimentError(f"--axis expects name=v1,v2,... got {text!r}")
    name, _, raw_values = text.partition("=")
    name = name.strip()
    values: "list[Any]" = []
    for token in raw_values.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(int(token))
            continue
        except ValueError:
            pass
        try:
            values.append(float(token))
            continue
        except ValueError:
            values.append(token)
    if not name or not values:
        raise ExperimentError(f"--axis expects name=v1,v2,... got {text!r}")
    return name, values
