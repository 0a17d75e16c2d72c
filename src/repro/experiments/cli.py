"""Command-line entry point: ``python -m repro.experiments.cli``.

Examples
--------
Run one experiment at the default scale and print its report::

    python -m repro.experiments.cli run E3

Run everything at smoke scale, saving artifacts::

    python -m repro.experiments.cli run all --scale smoke --out results/

Fan Monte-Carlo replicates out over 4 worker processes (results are
bit-identical to serial for the same seed — see
:mod:`repro.engine.backends`)::

    python -m repro.experiments.cli run E3 --workers 4

Run a whole parameter sweep through the sharded scheduler (every
configuration x replicate work unit shares one worker pool and each
configuration's graph ships to every worker once; results are
bit-identical across backends, worker counts, round sizes and shipping
modes — see :mod:`repro.engine.sweeps`)::

    python -m repro.experiments.cli sweep E3 --axis n=64,128,256 \
        --workers 4 --target-ci 0.05 --out results/

All grid experiments are declared as sweeps — E1/E2/E5/E10 run through
the same scheduler the E1/E2/E5/E10 reports aggregate::

    python -m repro.experiments.cli sweep E10 --scale smoke --workers 2
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.engine.backends import (
    WORKERS_ENV_VAR,
    default_n_workers,
    registered_backends,
    scoped_shared_backends,
)
from repro.engine.kernels import KERNEL_CHOICES, KERNEL_ENV_VAR, default_kernel
from repro.engine.store import STORE_ENV_VAR, ResultsStore, run_sweep_cached
from repro.engine.sweeps import ReplicateBudget, SweepRunner
from repro.errors import ReproError, SimulationError, StoreError
from repro.experiments.harness import SCALES
from repro.experiments.reporting import (
    render_summary,
    render_sweep_stats,
    render_sweep_table,
    save_report,
    save_sweep_result,
)
from repro.experiments.specs import EXPERIMENTS, run_experiment
from repro.experiments.specs_sweeps import (
    SWEEPS,
    axis_override_from_text,
    get_sweep,
    resolve_sweep_budget,
)
from repro.util.tables import Table


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help=f"experiment id ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    run.add_argument("--scale", choices=SCALES, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None, help="directory for artifacts")
    run.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="resolve the report's sweeps through the persistent results "
        f"store (default: ${STORE_ENV_VAR} when set): stored rows are "
        "reused byte-identically, misses compute and record",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for Monte-Carlo replicates (default: "
        f"${WORKERS_ENV_VAR} or serial); results are identical to serial "
        "for the same seed",
    )
    run.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help="simulation kernel for replicate execution (default: "
        f"${KERNEL_ENV_VAR} or auto); 'vectorized' advances eligible "
        "same-configuration replicate batches in numpy lockstep — "
        "results are bit-identical across kernels for the same seed",
    )

    sweep = subparsers.add_parser(
        "sweep",
        help="run a declared parameter sweep through the sharded scheduler",
    )
    sweep.add_argument(
        "sweep_id",
        help=f"sweep id ({', '.join(sorted(SWEEPS))})",
    )
    sweep.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="override one axis's values (repeatable), e.g. n=64,128,256",
    )
    sweep.add_argument("--scale", choices=SCALES, default=None)
    sweep.add_argument(
        "--seed",
        type=int,
        default=0,
        help="sweep root seed (per-configuration streams derive from it)",
    )
    sweep.add_argument(
        "--backend",
        choices=registered_backends(),
        default=None,
        help="execution backend for the configuration x replicate fan-out "
        "(default: chosen from --workers); results are byte-identical "
        "across backends for the same seed",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the configuration x replicate fan-out "
        f"(default: ${WORKERS_ENV_VAR} or serial); results are identical "
        "across worker counts for the same seed",
    )
    sweep.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help="simulation kernel for replicate execution (default: "
        f"${KERNEL_ENV_VAR} or auto); results are bit-identical across "
        "kernels for the same seed",
    )
    sweep.add_argument(
        "--target-ci",
        type=float,
        default=None,
        metavar="W",
        help="adaptive budget: stop a configuration once the bootstrap CI "
        "on the target quantile has relative width <= W",
    )
    sweep.add_argument(
        "--min-replicates",
        type=int,
        default=None,
        metavar="N",
        help="adaptive budget floor (never settle on fewer replicates)",
    )
    sweep.add_argument(
        "--max-replicates",
        type=int,
        default=None,
        metavar="N",
        help="adaptive budget cap (points hitting it are flagged "
        "budget_exhausted)",
    )
    sweep.add_argument(
        "--round-size",
        type=int,
        default=None,
        metavar="N",
        help="replicates added per adaptive round after the floor",
    )
    sweep.add_argument(
        "--replicates",
        type=int,
        default=None,
        metavar="N",
        help="fixed budget: exactly N replicates per configuration "
        "(disables the adaptive rule)",
    )
    sweep.add_argument("--out", default=None, help="directory for sweep JSON")
    sweep.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="route the sweep through the persistent results store "
        f"(default: ${STORE_ENV_VAR} when set): a fingerprint already "
        "in the database is a cache hit returning the stored "
        "byte-identical result with zero simulation work; a miss "
        "computes and records it",
    )
    sweep.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="JSON checkpoint written after each round; an existing file "
        "resumes the sweep, skipping settled configurations",
    )
    sweep.add_argument(
        "--no-shared-state",
        action="store_true",
        help="pickle each configuration's state into every replicate spec "
        "instead of shipping it once per worker (measurement/debugging "
        "only; results are bit-identical either way)",
    )
    store = subparsers.add_parser(
        "store",
        help="inspect and maintain the persistent results store",
    )
    store.add_argument(
        "--db",
        default=None,
        metavar="PATH",
        help=f"store database (default: ${STORE_ENV_VAR})",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_list = store_sub.add_parser("list", help="list stored runs")
    store_list.add_argument(
        "--sweep", default=None, metavar="ID", help="filter by sweep name"
    )
    store_list.add_argument(
        "--status",
        default=None,
        choices=("queued", "running", "done", "failed"),
        help="filter by run status",
    )
    store_show = store_sub.add_parser(
        "show", help="show one run's provenance and result table"
    )
    store_show.add_argument("run_id", help="run id (see `store list`)")
    store_gc = store_sub.add_parser(
        "gc", help="reap failed/stale rows (and optionally expire old runs)"
    )
    store_gc.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        metavar="D",
        help="also expire done runs created more than D days ago",
    )
    store_gc.add_argument(
        "--keep-incomplete",
        action="store_true",
        help="leave queued/running rows alone (use while a sweep is "
        "mid-flight against this store)",
    )
    store_export = store_sub.add_parser(
        "export", help="write a run's stored bytes to a JSON file"
    )
    store_export.add_argument("run_id", help="run id (see `store list`)")
    store_export.add_argument(
        "--out", required=True, metavar="PATH", help="output JSON path"
    )

    kernel = subparsers.add_parser(
        "kernel",
        help="inspect simulation-kernel eligibility for a sweep",
    )
    kernel_sub = kernel.add_subparsers(dest="kernel_command", required=True)
    explain = kernel_sub.add_parser(
        "explain",
        help="print the vectorized kernel's eligibility verdict per "
        "configuration (machine-readable reason codes for demotions)",
    )
    explain.add_argument(
        "sweep_id",
        help=f"sweep id ({', '.join(sorted(SWEEPS))})",
    )
    explain.add_argument("--scale", choices=SCALES, default=None)
    explain.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2,...",
        help="override one axis's values (repeatable), e.g. n=64,128,256",
    )

    verify = subparsers.add_parser(
        "verify-claims",
        help="recompute the paper's machine-checkable claims from stored "
        "sweep data and exit nonzero on drift",
    )
    verify.add_argument(
        "--claims",
        default=None,
        metavar="ID,ID,...",
        help="verify only these claim ids (default: the whole catalogue)",
    )
    verify.add_argument("--scale", choices=SCALES, default=None)
    verify.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="resolve claim sweeps through the persistent results store "
        f"(default: ${STORE_ENV_VAR} when set)",
    )
    verify.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="also look for sweep_<id>*.json artifacts in DIR (identity-"
        "checked by fingerprint before use)",
    )
    verify.add_argument(
        "--no-compute",
        action="store_true",
        help="never simulate: fail with a seeding hint if a claim's sweep "
        "is in neither the store nor the artifact directory (this is "
        "how CI proves the gate is data-driven)",
    )
    verify.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write claims.json + claims.txt (and the resolved sweep "
        "artifacts) to DIR",
    )
    verify.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for any sweep that must be computed",
    )
    verify.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help="simulation kernel for any sweep that must be computed",
    )

    subparsers.add_parser("list", help="list available experiments")
    return parser


def _sweep_budget(args) -> ReplicateBudget:
    """Resolve the budget flags (fixed wins; adaptive flags overlay the
    scale default) through
    :func:`~repro.experiments.specs_sweeps.resolve_sweep_budget`."""
    return resolve_sweep_budget(
        args.scale,
        replicates=args.replicates,
        target_ci=args.target_ci,
        min_replicates=args.min_replicates,
        max_replicates=args.max_replicates,
        round_size=args.round_size,
    )


def _store_db_path(raw: "str | None") -> str:
    """Resolve a store database path from a flag or the environment."""
    path = raw or os.environ.get(STORE_ENV_VAR)
    if not path:
        raise StoreError(
            f"no store database given; pass --db/--store or set ${STORE_ENV_VAR}"
        )
    return path


def _run_sweep_command(args) -> int:
    spec = get_sweep(args.sweep_id, scale=args.scale)
    for override in args.axis:
        name, values = axis_override_from_text(override)
        spec = spec.with_axis(name, values)
    budget = _sweep_budget(args)
    store = (
        ResultsStore(_store_db_path(args.store))
        if (args.store or os.environ.get(STORE_ENV_VAR))
        else None
    )
    cache_hit = False
    with scoped_shared_backends():
        # Backend resolution must happen inside the scope: it registers
        # the shared worker pool, and only pools created inside the
        # block are released on exit.
        if store is not None:
            outcome = run_sweep_cached(
                spec,
                store=store,
                seed=args.seed,
                budget=budget,
                backend=args.backend,
                n_workers=args.workers,
                checkpoint_path=args.checkpoint,
                share_state=not args.no_shared_state,
                kernel=args.kernel,
            )
            result, stats = outcome.result, outcome.stats
            cache_hit = outcome.cache_hit
        else:
            runner = SweepRunner(
                spec,
                seed=args.seed,
                budget=budget,
                backend=args.backend,
                n_workers=args.workers,
                checkpoint_path=args.checkpoint,
                share_state=not args.no_shared_state,
                kernel=args.kernel,
            )
            result = runner.run()
            stats = runner.stats
    print(render_sweep_table(result).render())
    print()
    if cache_hit:
        print(
            f"store: cache hit — run {outcome.run_id} served from "
            f"{store.path} with zero simulation work"
        )
    else:
        print(render_sweep_stats(result, stats))
        if store is not None:
            print(
                f"store: recorded run {outcome.run_id} "
                f"(fingerprint {outcome.fingerprint[:12]})"
            )
    if args.out:
        path = save_sweep_result(result, args.out)
        print(f"saved {path}")
    exhausted = sum(p.budget_exhausted for p in result.points)
    if exhausted:
        print(f"warning: {exhausted} configuration(s) hit the replicate cap")
    return 0


def _run_verify_claims_command(args) -> int:
    """``verify-claims``: the data-driven drift gate.

    Resolves every sweep the selected claims need through one
    :class:`~repro.reports.data.SweepSource` (store, then artifacts,
    then — unless ``--no-compute`` — a fresh run), re-evaluates the
    claim catalogue against the resolved rows, and exits 1 if any claim
    drifted out of its declared tolerance.
    """
    from pathlib import Path

    from repro.experiments.harness import resolve_scale
    from repro.reports import (
        claims_bundle,
        evaluate_claims,
        get_claims,
        required_sweeps,
        verdict_table,
    )
    from repro.reports.data import SweepSource
    from repro.util.serialization import to_json_file

    ids = None
    if args.claims:
        ids = [token.strip() for token in args.claims.split(",") if token.strip()]
    claims = get_claims(ids)
    scale = resolve_scale(args.scale)
    store = (
        ResultsStore(_store_db_path(args.store))
        if (args.store or os.environ.get(STORE_ENV_VAR))
        else None
    )
    source = SweepSource(
        store=store,
        artifact_dir=args.artifacts,
        compute=not args.no_compute,
        n_workers=args.workers,
        kernel=args.kernel,
    )
    results = {}
    with scoped_shared_backends():
        for name, seed in sorted(required_sweeps(claims).items()):
            results[name] = source.resolve(name, scale=scale, seed=seed)
    verdicts = evaluate_claims(claims, results)
    table = verdict_table(claims, verdicts)
    print(table.render())
    print()
    n_pass = sum(1 for v in verdicts if v.passed)
    print(f"claims: {n_pass}/{len(verdicts)} passed at scale {scale!r}")
    bundle = claims_bundle(claims, verdicts, scale=scale)
    if args.out:
        base = Path(args.out)
        base.mkdir(parents=True, exist_ok=True)
        to_json_file(bundle, base / "claims.json")
        (base / "claims.txt").write_text(table.render() + "\n", encoding="utf-8")
        for result in results.values():
            save_sweep_result(result, base)
        print(f"saved claims bundle to {base}")
    return 0 if bundle["passed"] else 1


def _run_store_command(args) -> int:
    # Inspection never creates a database: a mistyped path would
    # otherwise look like an empty store.  `sweep --store` creates one.
    path = _store_db_path(args.db)
    if not os.path.exists(path):
        raise StoreError(
            f"no results store at {path}; check --db or ${STORE_ENV_VAR} "
            "(`sweep --store` creates a new store)"
        )
    store = ResultsStore(path)
    if args.store_command == "list":
        runs = store.runs(sweep_name=args.sweep, status=args.status)
        if not runs:
            print("store: no matching runs")
            return 0
        table = Table(
            [
                "run id",
                "sweep",
                "status",
                "points",
                "reps",
                "commit",
                "created (UTC)",
            ],
            title=f"results store {store.path}: {len(runs)} run(s)",
        )
        for run in runs:
            table.add_row(
                [
                    run.run_id,
                    run.sweep_name,
                    run.status,
                    "" if run.n_points is None else run.n_points,
                    "" if run.total_replicates is None else run.total_replicates,
                    (run.git_commit or "")[:12],
                    run.created_utc,
                ]
            )
        print(table.render())
        return 0
    if args.store_command == "show":
        run = store.get(args.run_id)
        for key, value in run.to_dict().items():
            print(f"{key}: {'' if value is None else value}")
        if run.status == "done":
            print()
            print(render_sweep_table(store.load_result(run.run_id)).render())
        return 0
    if args.store_command == "gc":
        removed = store.gc(
            older_than_days=args.older_than_days,
            include_incomplete=not args.keep_incomplete,
        )
        print(f"store: removed {len(removed)} run(s)")
        for run_id in removed:
            print(f"  {run_id}")
        return 0
    # export — the only remaining subcommand (argparse enforces choices).
    path = store.export(args.run_id, args.out)
    print(f"exported {args.run_id} to {path}")
    return 0


def _run_kernel_command(args) -> int:
    """``kernel explain``: the eligibility verdict per sweep point."""
    from repro.engine.kernels import eligibility
    from repro.engine.sweeps import PointConfig

    spec = get_sweep(args.sweep_id, scale=args.scale)
    for override in args.axis:
        name, values = axis_override_from_text(override)
        spec = spec.with_axis(name, values)
    points = spec.expand()
    axis_names = [axis.name for axis in spec.axes]
    table = Table(
        ["point", *axis_names, "verdict", "reasons"],
        title=f"vectorized-kernel eligibility: sweep {spec.name!r} "
        f"({len(points)} configuration(s))",
    )
    n_eligible = 0
    for point in points:
        config = spec.builder(**point.params)
        if not isinstance(config, PointConfig):
            raise SimulationError(
                f"sweep {spec.name!r} builder returned "
                f"{type(config).__name__}, expected PointConfig"
            )
        monotone = bool(config.algorithm_factory().monotone_variance)
        verdict = eligibility(
            algorithm_factory=config.algorithm_factory,
            clock_factory=config.clock_factory,
            run_kwargs=SweepRunner._run_kwargs(config, monotone),
        )
        n_eligible += bool(verdict)
        table.add_row(
            [
                point.index,
                *(point.params[name] for name in axis_names),
                "vectorized" if verdict else "scalar",
                "" if verdict else verdict.describe(),
            ]
        )
    print(table.render())
    print(
        f"{n_eligible}/{len(points)} configuration(s) take the vectorized "
        "lockstep path; the rest run the scalar event loop "
        "(see docs/kernels.md for the eligibility rules)"
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI main; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id, function in EXPERIMENTS.items():
            doc = (function.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            sweepable = " [sweepable]" if experiment_id in SWEEPS else ""
            print(f"{experiment_id}: {summary}{sweepable}")
        return 0

    if args.command == "store":
        # Dispatched before the --workers guard: the store namespace has
        # no workers attribute (pure metadata command, nothing computes).
        try:
            return _run_store_command(args)
        except ReproError as exc:
            print(exc, file=sys.stderr)
            return 2

    if args.command == "kernel":
        # Also dispatched before the --workers guard: pure inspection,
        # nothing computes and the namespace has no workers attribute.
        try:
            return _run_kernel_command(args)
        except ReproError as exc:
            print(exc, file=sys.stderr)
            return 2

    if args.workers is not None and args.workers < 1:
        print(f"--workers must be positive, got {args.workers}", file=sys.stderr)
        return 2

    if args.command == "verify-claims":
        try:
            return _run_verify_claims_command(args)
        except ReproError as exc:
            print(exc, file=sys.stderr)
            return 2

    if args.command == "sweep":
        try:
            return _run_sweep_command(args)
        except ReproError as exc:
            print(exc, file=sys.stderr)
            return 2
    if args.workers is None:
        # Surface a bad REPRO_WORKERS value before any report output
        # instead of as a traceback inside the first estimator call.
        try:
            default_n_workers()
        except SimulationError as exc:
            print(exc, file=sys.stderr)
            return 2
    if args.kernel is None:
        # Same early surfacing for a bad REPRO_KERNEL value.
        try:
            default_kernel()
        except SimulationError as exc:
            print(exc, file=sys.stderr)
            return 2

    if args.experiment.lower() == "all":
        ids = list(EXPERIMENTS)
    else:
        ids = [args.experiment]
    # Experiments read the worker count from the environment (the same
    # global mechanism as the REPRO_SCALE fallback), so one flag
    # parallelizes every estimator call; restore the variable afterwards
    # so programmatic main() calls leave no trace.
    saved_workers = os.environ.get(WORKERS_ENV_VAR)
    if args.workers is not None:
        os.environ[WORKERS_ENV_VAR] = str(args.workers)
    saved_kernel = os.environ.get(KERNEL_ENV_VAR)
    if args.kernel is not None:
        os.environ[KERNEL_ENV_VAR] = args.kernel
    try:
        # Leave no trace in long-lived hosts: pools this run creates are
        # released on exit, pools the host already had warm are kept.
        run_store = (
            ResultsStore(_store_db_path(args.store))
            if (args.store or os.environ.get(STORE_ENV_VAR))
            else None
        )
        source = None
        if run_store is not None:
            from repro.reports.data import SweepSource

            source = SweepSource(
                store=run_store, n_workers=args.workers, kernel=args.kernel
            )
        with scoped_shared_backends():
            reports = []
            for experiment_id in ids:
                report = run_experiment(
                    experiment_id,
                    scale=args.scale,
                    seed=args.seed,
                    source=source,
                )
                reports.append(report)
                print(report.render())
                print()
                if args.out:
                    text_path, json_path = save_report(report, args.out)
                    print(f"saved {text_path} and {json_path}")
            print(render_summary(reports))
            return 0 if all(r.all_checks_passed for r in reports) else 1
    finally:
        if args.workers is not None:
            if saved_workers is None:
                os.environ.pop(WORKERS_ENV_VAR, None)
            else:
                os.environ[WORKERS_ENV_VAR] = saved_workers
        if args.kernel is not None:
            if saved_kernel is None:
                os.environ.pop(KERNEL_ENV_VAR, None)
            else:
                os.environ[KERNEL_ENV_VAR] = saved_kernel


if __name__ == "__main__":
    sys.exit(main())
