"""Benchmark entry point: each workload runs in a fresh process.

    python3 perfbench/run.py --workload store-replay --seed 0 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root (no build step: ``src/`` is put on the
path).  One workload relays its process's output, whose last line is the
result JSON.  ``--workload all`` runs every workload, each in its own
process so peak memory and warm caches never leak between them, and
prints a table of the end-to-end metrics.  ``--trace 1`` gives the
per-layer metrics of a traced run instead; ``--scale smoke`` shrinks
``reports-default`` for the self-test.

The workload process gets one BLAS/OpenMP thread and no ``REPRO_*``
settings from the caller's environment, so nothing but the arguments
decides what runs.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(workloads.WORKLOADS)

#: A workload process is stopped after this many seconds.
TIMEOUT_S = 175.0


def workload_env() -> "dict[str, str]":
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # The store asks git for a code version; never look above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    # Temporary files (process-pool ones included) stay in the checkout.
    temporary = HERE / "out" / "tmp"
    temporary.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(temporary)
    return env


def run_workload(
    workload: str, *, seed: int, seconds: float, trace: int, scale: str, echo: bool
) -> "tuple[int, list[str]]":
    """Run one workload process; returns its exit code and output lines."""
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scale", scale,
        "--t0", repr(time.monotonic()),
    ]
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=workload_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )

    def stop() -> None:
        print(f"{workload}: stopped after {TIMEOUT_S:.0f} s", file=sys.stderr)
        os.killpg(process.pid, signal.SIGKILL)

    timer = threading.Timer(TIMEOUT_S, stop)
    timer.start()
    lines = []
    try:
        assert process.stdout is not None
        for line in process.stdout:
            lines.append(line.rstrip("\n"))
            if echo:
                print(line, end="", flush=True)
        code = process.wait()
    finally:
        timer.cancel()
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    return code, lines


def result_of(lines: "list[str]") -> "dict | None":
    """The result JSON (the last output line), or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def run_all(args: argparse.Namespace) -> int:
    rows = []
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code, lines = run_workload(
            workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            scale=args.scale,
            echo=True,
        )
        result = result_of(lines)
        if code != 0 or result is None:
            status = 1
            rows.append((workload, None))
            continue
        if not result["correct"]:
            status = 1
        rows.append((workload, result))
    print()
    for workload, result in rows:
        if result is None:
            print(f"{workload:16s} FAILED (no result)")
            continue
        failed = result["failed"] / result["attempted"]
        print(
            f"{workload:16s} ops_failed_fraction = {failed:.6g} ratio "
            f"({result['failed']} of {result['attempted']})"
        )
        for name, metric in result["metrics"].items():
            print(f"{'':16s} {name} = {metric['value']:.6g} {metric['unit']}")
    return status


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="default", choices=("smoke", "default"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    code, lines = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        scale=args.scale,
        echo=True,
    )
    if code == 0 and result_of(lines) is None:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
