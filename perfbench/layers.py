"""Which public callables of each layer the tracer wraps, and the metrics.

Every span name is ``<layer>.<what>``; :func:`layer_metrics` turns the
tracer's aggregates into the ``per_layer`` metrics of ``BENCHMARK.json``.
Set-up (seeding a results store) is traced in its own phase and left
out of every metric except the store writes, which happen there.
Timed-phase metrics are per traced pass.
"""

from __future__ import annotations

import inspect
import statistics
from typing import Any

from tracer import Tracer

#: Reason codes the kernel dispatcher counts as ``demoted:<code>``.
DEMOTION_CODES = (
    "algorithm-unsupported",
    "clock-unsupported",
    "run-kwarg-unsupported",
    "recorder-attached",
    "auto-batch-below-min",
)

#: Experiments and sweeps with their own per-experiment metric.
EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 15))
SWEEP_IDS = ("E1", "E2", "E3", "E4", "E5", "E9", "E10", "E13")

_STORE_READS = (
    "lookup",
    "get",
    "result_text",
    "load_result",
    "envelope",
    "runs",
    "results_for_sweep",
    "latest_result",
)
_STORE_WRITES = ("begin_run", "mark_running", "fail", "finish", "gc")


def _subclasses(cls: type) -> "list[type]":
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _module_callables(module: Any) -> "list[Any]":
    """Public functions defined in ``module`` (``lru_cache`` ones included)."""
    return [
        value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and not inspect.isclass(value)
        and getattr(value, "__module__", None) == module.__name__
    ]


# -- hooks --------------------------------------------------------------


def _simulator_events(tracer, args, kwargs, result, duration) -> None:
    tracer.count("simulator.events", result.n_events)


def _scalar_replicate(tracer, args, kwargs, result, duration) -> None:
    tracer.count("kernels.scalar_replicates")


def _vectorized_group(tracer, args, kwargs, result, duration) -> None:
    tracer.count("kernels.vectorized_replicates", len(result))
    tracer.count("kernels.vectorized_events", sum(r.n_events for r in result))


def _sweep_rounds(tracer, args, kwargs, result, duration) -> None:
    tracer.count("sweeps.rounds", args[0].stats.get("rounds", 0))


def _resolved_sweep(tracer, args, kwargs, result, duration) -> None:
    sweep_id = str(args[1] if len(args) > 1 else kwargs["sweep_id"]).upper()
    tracer.count(f"sweep.{sweep_id}_s", duration)


def _dispatch_wrapper(tracer: Tracer):
    """``execute_specs`` wrapper that also sees the demotion counters.

    The dispatcher accumulates ``demoted:<code>`` counts into the caller's
    ``stats`` dict; the wrapper hands it a fresh dict and merges it back,
    which leaves the caller's counters exactly as the original would.
    """
    from repro.engine.kernels import new_kernel_stats

    def make(original):
        def wrapper(specs, *, stats=None):
            if tracer.is_open("kernels.dispatch"):
                return original(specs, stats=stats)
            local = new_kernel_stats()
            frame = tracer.open("kernels.dispatch")
            try:
                result = original(specs, stats=local)
            finally:
                tracer.close(frame)
            for key, value in local.items():
                if stats is not None:
                    stats[key] = stats.get(key, 0) + value
                if key.startswith("demoted:"):
                    tracer.count(f"kernels.demoted.{key[len('demoted:'):]}", value)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    return make


# -- installation -------------------------------------------------------


def instrument(tracer: Tracer) -> None:
    """Wrap every traced layer's public callables (undo: ``tracer.patcher``)."""
    import repro.algorithms  # noqa: F401  (registers every algorithm class)
    import repro.core  # noqa: F401
    from repro.algorithms.base import GossipAlgorithm
    from repro.clocks import poisson, schedule, unreliable
    from repro.engine import averaging_time, backends, kernels, store, sweeps
    from repro.engine.kernels.scalar import ScalarKernel
    from repro.engine.kernels.vectorized import VectorizedBatchKernel
    from repro.engine.simulator import Simulator
    from repro.experiments import harness, specs_sweeps
    from repro.graphs import (
        builders,
        clustering,
        composites,
        geometric,
        spectral,
        topologies,
    )
    from repro.reports import data, model

    tracer.keep_durations.add("simulator.run")
    tracer.wrap_method(Simulator, "run", "simulator.run", after=_simulator_events)

    tracer.patcher.function(kernels.execute_specs, _dispatch_wrapper(tracer))
    tracer.wrap_method(
        ScalarKernel, "execute_one", "kernels.scalar", after=_scalar_replicate
    )
    tracer.wrap_method(
        VectorizedBatchKernel, "execute", "kernels.vectorized", after=_vectorized_group
    )

    for cls in dict.fromkeys([GossipAlgorithm, *_subclasses(GossipAlgorithm)]):
        if "__init__" in vars(cls):
            tracer.wrap_method(cls, "__init__", "algorithms.init")
        if "setup" in vars(cls):
            tracer.wrap_method(cls, "setup", "algorithms.setup")

    for module in (poisson, schedule, unreliable):
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and "next_batch" in vars(cls)
            ):
                tracer.wrap_method(cls, "next_batch", "clocks.next_batch")

    for module in (topologies, composites, builders, geometric, clustering):
        for func in _module_callables(module):
            name = "graphs.spectral" if func is clustering.spectral_clusters else (
                "graphs.build"
            )
            tracer.wrap_function(func, name)
    for func in _module_callables(spectral):
        tracer.wrap_function(func, "graphs.spectral")

    tracer.wrap_method(sweeps.SweepRunner, "run", "sweeps.run", after=_sweep_rounds)
    tracer.wrap_function(sweeps.evaluate_stopping, "sweeps.stopping")
    for name, func in vars(specs_sweeps).items():
        if name.endswith("_build_point") and callable(func):
            tracer.wrap_function(func, "sweeps.point_build")

    for func in (
        averaging_time.estimate_averaging_time,
        averaging_time.epsilon_averaging_time,
        harness.measure_averaging_time,
    ):
        tracer.wrap_function(func, "averaging_time.provider")

    for cls, attr in (
        (backends.ExecutionBackend, "execute_shared"),
        (backends.SerialBackend, "execute"),
        (backends.ProcessPoolBackend, "execute"),
        (backends.ProcessPoolBackend, "execute_shared"),
    ):
        tracer.wrap_method(cls, attr, "backends.execute")

    for attr in _STORE_READS:
        tracer.wrap_method(store.ResultsStore, attr, "store.read")
    for attr in _STORE_WRITES:
        tracer.wrap_method(store.ResultsStore, attr, "store.write")

    tracer.wrap_function(model.build_report, "reports.build")
    tracer.wrap_method(
        data.SweepSource, "resolve", "reports.resolve", after=_resolved_sweep
    )


# -- metrics ------------------------------------------------------------


def _quantile(values: "list[float]", q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(
    tracer: Tracer,
    passes: int,
    *,
    traced_walls: "list[float]",
    untraced_walls: "list[float]",
) -> "dict[str, tuple[float, str]]":
    """Per-layer metrics as ``name -> (value, unit)``, per traced pass.

    ``*_self_s`` metrics are self times; other ``*_s`` metrics are the
    inclusive time of the layer's outermost spans.  A layer the workload
    never reaches reads 0.
    """
    per = 1.0 / max(passes, 1)
    spans, setup_spans = tracer.spans["timed"], tracer.spans["setup"]
    counters = tracer.counters["timed"]

    def total(name: str) -> float:
        return spans[name][0] * per

    def self_time(name: str) -> float:
        return spans[name][1] * per

    def calls(name: str) -> float:
        return spans[name][2] * per

    def counter(name: str) -> float:
        return counters[name] * per

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    run_ms = [d * 1e3 for d in tracer.durations["timed"]["simulator.run"]]
    scalar_reps = counter("kernels.scalar_replicates")
    vector_reps = counter("kernels.vectorized_replicates")
    metrics: "dict[str, tuple[float, str]]" = {
        "simulator.self_s": (self_time("simulator.run"), "s"),
        "simulator.runs": (calls("simulator.run"), "count"),
        "simulator.events": (counter("simulator.events"), "events"),
        "simulator.events_per_s": (
            rate(counter("simulator.events"), total("simulator.run")),
            "events/s",
        ),
        "simulator.run_p50_ms": (_quantile(run_ms, 0.5), "ms"),
        "simulator.run_p90_ms": (_quantile(run_ms, 0.9), "ms"),
        "kernels.dispatch_self_s": (self_time("kernels.dispatch"), "s"),
        "kernels.scalar_s": (total("kernels.scalar"), "s"),
        "kernels.scalar_replicates": (scalar_reps, "count"),
        "kernels.vectorized_s": (total("kernels.vectorized"), "s"),
        "kernels.vectorized_replicates": (vector_reps, "count"),
        "kernels.vectorized_share": (
            rate(vector_reps, vector_reps + scalar_reps),
            "ratio",
        ),
        "kernels.vectorized_events_per_s": (
            rate(counter("kernels.vectorized_events"), total("kernels.vectorized")),
            "events/s",
        ),
    }
    for code in DEMOTION_CODES:
        metrics[f"kernels.demoted.{code}"] = (
            counter(f"kernels.demoted.{code}"),
            "count",
        )
    metrics.update({
        "algorithms.init_s": (total("algorithms.init"), "s"),
        "algorithms.inits": (calls("algorithms.init"), "count"),
        "algorithms.setup_s": (total("algorithms.setup"), "s"),
        "clocks.next_batch_s": (total("clocks.next_batch"), "s"),
        "clocks.batches": (calls("clocks.next_batch"), "count"),
        "graphs.build_s": (total("graphs.build"), "s"),
        "graphs.builds": (calls("graphs.build"), "count"),
        "graphs.spectral_s": (total("graphs.spectral"), "s"),
        "sweeps.point_build_s": (total("sweeps.point_build"), "s"),
        "sweeps.stopping_s": (total("sweeps.stopping"), "s"),
        "sweeps.rounds": (counter("sweeps.rounds"), "count"),
        "sweeps.self_s": (self_time("sweeps.run"), "s"),
        "averaging_time.provider_s": (total("averaging_time.provider"), "s"),
        "averaging_time.calls": (calls("averaging_time.provider"), "count"),
        "backends.execute_s": (total("backends.execute"), "s"),
        "backends.batches": (calls("backends.execute"), "count"),
        "store.read_s": (total("store.read"), "s"),
        "store.reads": (calls("store.read"), "count"),
        # The store is written while it is seeded, during set-up: these two
        # add the whole set-up phase to the per-pass figure.
        "store.write_s": (setup_spans["store.write"][0] + total("store.write"), "s"),
        "store.writes": (
            setup_spans["store.write"][2] + calls("store.write"),
            "count",
        ),
        "reports.build_self_s": (self_time("reports.build"), "s"),
        "reports.resolve_s": (total("reports.resolve"), "s"),
        "reports.claims_s": (total("reports.claims"), "s"),
    })
    for experiment_id in EXPERIMENT_IDS:
        metrics[f"experiment.{experiment_id}_s"] = (
            total(f"experiment.{experiment_id}"),
            "s",
        )
    for sweep_id in SWEEP_IDS:
        metrics[f"sweep.{sweep_id}_s"] = (counter(f"sweep.{sweep_id}_s"), "s")
    traced = statistics.median(traced_walls) if traced_walls else 0.0
    untraced = statistics.median(untraced_walls) if untraced_walls else 0.0
    metrics["trace.overhead_frac"] = (
        traced / untraced - 1.0 if untraced > 0 else 0.0,
        "ratio",
    )
    metrics["trace.traced_wall_s"] = (traced, "s")
    metrics["trace.untraced_wall_s"] = (untraced, "s")
    return metrics


def self_time_ranking(tracer: Tracer) -> "list[tuple[str, float]]":
    """Timed-phase span names by total self time, largest first."""
    spans = tracer.spans["timed"]
    return sorted(
        ((name, values[1]) for name, values in spans.items() if values[2]),
        key=lambda item: -item[1],
    )
