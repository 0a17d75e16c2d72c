"""One benchmark workload, run in its own process by ``run.py``.

Each workload drives the public Python API of ``repro`` the way a user
does, in one closed loop with one caller:

* ``reports-default`` — every E1-E14 report at ``--scale default``,
  serial, kernel ``auto``, once and cold, as ``run all`` users pay for it.
  Convex arms need Omega(n) averaging time on a dumbbell, so most of this
  time is the scalar event loop.
* ``store-replay`` — set-up writes the eight sweep-backed reports'
  results (E1-E5, E9, E10, E13 at the reports' default seeds, from
  ``store_fixture.json``) into a fresh results store.  Each timed pass
  renders those reports and evaluates every claim through
  ``SweepSource(store=..., compute=False)``: reads instead of compute, no
  replicate simulated.

On ``reports-default`` the workload seed offsets every experiment's
default seed (``--seed 0`` is the reports' default seeds);
``store-replay`` replays the same store whatever the seed.  Outputs are
checked by digest: against ``reference_digests.json`` where the inputs
are the reference ones, and otherwise against the first pass of the same
run (passes, traced or not, must agree exactly).

The last line of standard output is the result JSON; earlier lines give
provenance, the digests and every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference_digests.json"
FIXTURE_PATH = HERE / "store_fixture.json"
#: The scale of the reference digests and of the store fixture.
SCALE = "default"
OUT_DIR = HERE / "out"

#: Never start a pass predicted to end later than this after process start,
#: so a run stays inside its time limit on a slow machine.
DEADLINE_S = 140.0

#: Modules every workload imports during set-up (also timed by the probes).
IMPORTS = (
    "numpy",
    "repro.experiments.specs",
    "repro.experiments.specs_sweeps",
    "repro.engine.sweeps",
    "repro.engine.store",
    "repro.engine.backends",
    "repro.reports",
)

#: Extra interpreter starts timed to give ``setup_s`` a median.
IMPORT_PROBES = 2



def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _canonical(value):
    """JSON-ready copy with floats at 12 significant digits.

    Report findings include eigenvalue-derived theory bounds whose last
    bits depend on the linear-algebra library; 12 digits keep the digest
    about the report, not about the machine.
    """
    if isinstance(value, float):
        return float(f"{value:.12g}") if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def report_digest(report) -> str:
    return digest(json.dumps(_canonical(report.to_dict()), sort_keys=True, default=str))


def sweep_digest(result) -> str:
    from repro.engine.store import canonical_result_text

    return digest(canonical_result_text(result))


class EventCounter:
    """Counts the replicate-events of every batch the engine executes.

    Wraps ``execute_with_retry``, through which every Monte-Carlo and
    sweep batch reaches its backend, so replicates run in worker
    processes count too; one addition per batch.
    """

    def __init__(self) -> None:
        from repro.engine.backends import execute_with_retry
        from tracer import Patcher

        self.events = 0
        self.patcher = Patcher()

        def count(original):
            def counted(*args, **kwargs):
                results = original(*args, **kwargs)
                self.events += sum(result.n_events for result in results)
                return results

            return counted

        self.patcher.function(execute_with_retry, count)

    def restore(self) -> None:
        self.patcher.restore()


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
#
# ``run_pass(span)`` returns ``(records, events)``: ``records`` are
# ``(key, operations, ok, digest)`` tuples, ``events`` the replicate-events
# the pass simulated or served.  ``span(name)`` opens a benchmark-side span
# (a no-op outside traced passes).


class ReportsDefault:
    name = "reports-default"
    #: One cold pass: a second pass in the same process would be warm.
    max_passes = 1

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        self.reference = seed == 0 and scale == SCALE

    def setup(self) -> None:
        from repro.reports.registry import REPORT_SPECS

        self.seeds = {
            experiment_id: spec.default_seed + self.seed
            for experiment_id, spec in REPORT_SPECS.items()
        }
        self.counter = EventCounter()

    def run_pass(self, span):
        from repro.experiments.specs import run_experiment

        before = self.counter.events
        records = []
        for experiment_id, seed in self.seeds.items():
            with span(f"experiment.{experiment_id}"):
                report = run_experiment(experiment_id, scale=self.scale, seed=seed)
            records.append((
                f"report.{experiment_id}",
                1,
                report.all_checks_passed,
                report_digest(report),
            ))
        return records, self.counter.events - before

    def close(self) -> None:
        self.counter.restore()


class StoreReplay:
    name = "store-replay"
    max_passes = None

    def __init__(self, seed: int, scale: str) -> None:
        # The store holds fixed results (``store_fixture.json``), so the
        # seed and the scale do not change this workload.
        self.reference = True

    def setup(self) -> None:
        from repro.engine.store import ResultsStore, sweep_fingerprint
        from repro.engine.sweeps import SweepResult
        from repro.experiments.specs_sweeps import get_sweep, report_budget
        from repro.reports import SweepSource, get_claims, required_sweeps

        with open(FIXTURE_PATH, encoding="utf-8") as handle:
            fixture = json.load(handle)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="store-", dir=OUT_DIR))
        self.store = ResultsStore(self.directory / "results.sqlite")
        budget = report_budget(SCALE)
        self.seeds, self.seeded = {}, {}
        for sweep_id, entry in fixture["sweeps"].items():
            seed = entry["seed"]
            spec = get_sweep(sweep_id, scale=SCALE, seed=seed)
            run, _created = self.store.begin_run(
                sweep_fingerprint(spec, seed=seed, budget=budget), spec.name
            )
            self.store.mark_running(run.run_id)
            result = SweepResult.from_dict(entry["result"])
            self.store.finish(run.run_id, result)
            self.seeds[sweep_id] = seed
            self.seeded[sweep_id] = result
        #: Replicate-events the stored results embody, served every pass.
        self.events = fixture["replicate_events"]
        self.replay = SweepSource(store=self.store, compute=False)
        self.claims = get_claims()
        self.claim_seeds = required_sweeps(self.claims)

    def setup_records(self):
        """The stored sweeps, checked against the reference digests."""
        return [
            (f"sweep.{sweep_id}", result.n_points, True, sweep_digest(result))
            for sweep_id, result in self.seeded.items()
        ]

    def run_pass(self, span):
        from repro.experiments.specs import run_experiment
        from repro.reports import evaluate_claims, verdict_table

        records = []
        for sweep_id, seed in self.seeds.items():
            with span(f"experiment.{sweep_id}"):
                report = run_experiment(
                    sweep_id, scale=SCALE, seed=seed, source=self.replay
                )
            records.append((
                f"report.{sweep_id}",
                1,
                report.all_checks_passed,
                report_digest(report),
            ))
        with span("reports.claims"):
            results = {
                sweep_id: self.replay.resolve(sweep_id, scale=SCALE, seed=seed)
                for sweep_id, seed in self.claim_seeds.items()
            }
            verdicts = evaluate_claims(self.claims, results)
        records.append((
            "claims",
            len(verdicts),
            all(verdict.passed for verdict in verdicts),
            digest(verdict_table(self.claims, verdicts).render()),
        ))
        return records, self.events

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (StoreReplay, ReportsDefault)}


# ----------------------------------------------------------------------
# the measurement loop
# ----------------------------------------------------------------------


class Checker:
    """Counts operations and failures; compares every digest it sees.

    Where the workload's inputs are the reference ones the expectation is
    the committed reference; otherwise it is the first digest seen for the
    key in this run, so later passes (traced or not) must reproduce it
    exactly.
    """

    def __init__(self, reference: "dict[str, str]") -> None:
        self.expected = dict(reference)
        self.first: "dict[str, str]" = {}
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []

    def check(self, records) -> None:
        for key, operations, ok, value in records:
            self.attempted += operations
            problem = None if ok else "check failed"
            if value is not None:
                self.first.setdefault(key, value)
                expected = self.expected.setdefault(key, value)
                if value != expected:
                    problem = f"digest {value} != expected {expected}"
            if problem is not None:
                self.failed += operations
                self.problems.append(f"{key}: {problem}")

    def exception(self, where: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{where}: {type(exc).__name__}: {exc}")


@contextlib.contextmanager
def _no_span(name: str):
    yield


def _timed_pass(workload, checker: Checker, span) -> "tuple[float, int]":
    start = time.perf_counter()
    try:
        records, events = workload.run_pass(span)
    except Exception as exc:  # a failed operation, counted and reported
        checker.exception(f"{workload.name} pass", exc)
        return time.perf_counter() - start, 0
    wall = time.perf_counter() - start
    checker.check(records)
    return wall, events


def _import_probes() -> "list[float]":
    """Seconds from interpreter launch to the end of the workload imports."""
    code = (
        "import importlib, sys, time\n"
        "start = float(sys.argv[1])\n"
        f"for name in {IMPORTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(time.monotonic() - start)\n"
    )
    times = []
    for _ in range(IMPORT_PROBES):
        launched = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code, repr(launched)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def _stamp() -> dict:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from _stamp import run_stamp
    finally:
        sys.path.pop(0)
    return run_stamp()


def _reference() -> "dict[str, str]":
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="default", choices=("smoke", "default"))
    parser.add_argument(
        "--t0", type=float, required=True, help="monotonic time of the launch"
    )
    args = parser.parse_args(argv)

    import importlib

    for name in IMPORTS:
        importlib.import_module(name)
    imported = time.monotonic()

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    checker = Checker(_reference() if workload.reference else {})
    tracer = None
    if args.trace:
        from layers import instrument
        from tracer import Tracer

        tracer = Tracer()
        tracer.phase = "setup"
        instrument(tracer)
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.patcher.restore()
            tracer.phase = "timed"
    if hasattr(workload, "setup_records"):
        checker.check(workload.setup_records())
    setup_done = time.monotonic()

    walls: "list[float]" = []
    traced_walls: "list[float]" = []
    events_per_pass: "list[int]" = []
    start = time.monotonic()

    def room_for(seconds_needed: float, *, within_run: bool = True) -> bool:
        now = time.monotonic()
        if now - args.t0 + seconds_needed > DEADLINE_S:
            return False
        return not within_run or now - start + seconds_needed <= args.seconds

    try:
        if tracer is None:
            while True:
                wall, events = _timed_pass(workload, checker, _no_span)
                walls.append(wall)
                events_per_pass.append(events)
                if workload.max_passes and len(walls) >= workload.max_passes:
                    break
                if not room_for(statistics.median(walls)):
                    break
        else:
            from layers import instrument

            # Traced and untraced passes alternate, traced first, so the
            # layer figures describe the same cold first pass users pay for.
            while True:
                instrument(tracer)
                try:
                    wall, _events = _timed_pass(workload, checker, tracer.span)
                finally:
                    tracer.patcher.restore()
                traced_walls.append(wall)
                if not room_for(wall, within_run=bool(walls)):
                    break
                wall, _events = _timed_pass(workload, checker, _no_span)
                walls.append(wall)
                if workload.max_passes and len(walls) >= workload.max_passes:
                    break
                if not room_for(
                    statistics.median(traced_walls) + statistics.median(walls)
                ):
                    break
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print("stamp: " + json.dumps(_stamp(), sort_keys=True))
    print("digests: " + json.dumps(checker.first, sort_keys=True))
    for problem in checker.problems:
        print(f"FAILED {problem}")

    if tracer is None:
        import_times = [imported - args.t0, *_import_probes()]
        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (statistics.median(import_times) + setup_done - imported, "s"),
            "replicate_events_per_s": (statistics.median(events_per_pass) / wall_s,
                                       "events/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ops_ok_fraction": (
                1.0 - checker.failed / max(checker.attempted, 1),
                "ratio",
            ),
        }
        print(
            f"passes (s): {', '.join(f'{wall:.3f}' for wall in walls)}; "
            f"events per pass: {events_per_pass[0]}"
        )
    else:
        from layers import layer_metrics, self_time_ranking
        from tracer import leftover_wrappers

        leftovers = leftover_wrappers()
        print("leftover wrappers: " + json.dumps(leftovers))
        if leftovers:
            checker.attempted += 1
            checker.failed += 1
            print("FAILED wrappers left installed")
        metrics = layer_metrics(
            tracer,
            len(traced_walls),
            traced_walls=traced_walls,
            untraced_walls=walls,
        )
        ranking = ", ".join(
            f"{name} {seconds:.3f}" for name, seconds in self_time_ranking(tracer)[:8]
        )
        print(f"self time over the traced passes (s): {ranking}")
        path = tracer.write_chrome_trace(
            OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed},
        )
        print(f"chrome trace: {path.relative_to(ROOT)}")
        print(f"passes: {len(traced_walls)} traced, {len(walls)} untraced")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
