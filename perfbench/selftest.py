"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload, an untraced and a traced one-second run at
``--scale smoke`` must both finish with a correct result, print the same
output digests (tracing never changes a result), leave no wrapper
installed, and print every metric ``BENCHMARK.json`` names with its
unit.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys

import run


def _line_value(lines: "list[str]", prefix: str):
    for line in lines:
        if line.startswith(prefix):
            return json.loads(line[len(prefix):])
    return None


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    expected_units = {
        0: {metric["name"]: metric["unit"] for metric in benchmark["end_to_end"]},
        1: {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]},
    }
    failures = []
    for workload in run.WORKLOADS:
        digests = {}
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            code, lines = run.run_workload(
                workload, seed=0, seconds=1, trace=trace, scale="smoke", echo=False
            )
            result = run.result_of(lines)
            if code != 0 or result is None:
                failures.append(f"{label}: exit {code}, no result")
                continue
            if not result["correct"]:
                problems = [line for line in lines if line.startswith("FAILED")]
                failures.append(f"{label}: incorrect: {problems}")
            printed = {
                name: metric["unit"] for name, metric in result["metrics"].items()
            }
            if printed != expected_units[trace]:
                missing = sorted(set(expected_units[trace]) - set(printed))
                extra = sorted(set(printed) - set(expected_units[trace]))
                units = sorted(
                    name
                    for name in set(printed) & set(expected_units[trace])
                    if printed[name] != expected_units[trace][name]
                )
                failures.append(
                    f"{label}: metrics missing {missing}, unexpected {extra}, "
                    f"wrong unit {units}"
                )
            for name, unit in printed.items():
                if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                           for line in lines):
                    failures.append(f"{label}: {name} not printed with its unit")
            if trace:
                leftovers = _line_value(lines, "leftover wrappers: ")
                if leftovers != []:
                    failures.append(f"{label}: wrappers not restored: {leftovers}")
            digests[trace] = _line_value(lines, "digests: ")
        if len(digests) == 2 and (not digests[0] or digests[0] != digests[1]):
            failures.append(
                f"{workload}: traced digests {digests[1]} != untraced {digests[0]}"
            )
        print(f"{workload}: {'ok' if not failures else 'checked'}", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
