"""The event-driven simulator.

Executes one algorithm on one graph under one clock process, maintaining
exact incremental statistics:

* the value vector ``x``;
* the running sum ``T = sum(x)`` and square-sum ``S = sum(x^2)``, updated
  in O(1) per event and refreshed from scratch periodically to cancel
  floating-point drift, giving the population variance
  ``var = S/n - (T/n)^2`` after every single event;
* per-edge tick counts (Algorithm A's schedule lives on them);
* threshold-crossing records for the variance ratio (both the first time
  the ratio falls below each threshold and the last time it was above —
  the paper's ``T_av`` needs the *last*, because non-convex updates make
  excursions).

Two loops run the events.  The generic loop calls the algorithm's
``on_tick`` on every event, with ``x`` a plain Python list (scalar
indexing of lists is several times faster than of numpy arrays); it is
the oracle and runs every algorithm.  An algorithm that declares its
tick (:mod:`repro.algorithms.rules`) runs on the compiled loop in
``_loop.c`` instead (:mod:`repro.engine.compiled`), bit-identical to the
generic one, or on the generic loop when no C compiler is available.

The model is the paper's: i.i.d. rate-1 Poisson clocks per edge by
default; deterministic schedules can be injected for tests.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.algorithms.rules import (
    ConvexRule,
    PairwiseRule,
    PushSumRule,
    RandomConvexRule,
    SecondOrderRule,
    SparseCutRule,
    Swap,
    TwoTimescaleRule,
    declared_rule,
)
from repro.clocks.poisson import PoissonEdgeClocks
from repro.engine.compiled import (
    BATCH_DONE,
    DIVERGED,
    MAX_TIME,
    REFRESH,
    TARGET,
    LoopState,
    load_loop,
)
from repro.engine.recorder import TraceRecorder
from repro.engine.results import Crossing, RunResult
from repro.errors import SimulationError
from repro.graphs.graph import Graph
from repro.util.rng import as_generator

#: Hard cap on events when the caller provides no budget at all.
DEFAULT_MAX_EVENTS = 50_000_000

#: Events generated per clock batch (amortizes numpy call overhead).
DEFAULT_BATCH_SIZE = 8_192

#: Incremental statistics are recomputed exactly this often (in updates).
DEFAULT_RECOMPUTE_EVERY = 65_536

#: Op codes of the compiled loop's other updates (``_loop.c``), next to
#: Algorithm A's edge classes (SparseCutRule.SILENCED/MEAN/DESIGNATED are
#: 0, 1, 2).
_CONVEX = 3
_PUSH = 4
_SECOND_ORDER = 5
_RANDOM_CONVEX = 6
_SLOW = 7

#: Why a compiled run stopped, by ``run_batch`` return code.
_STOPS = {TARGET: "target_ratio", DIVERGED: "diverged", MAX_TIME: "max_time"}

#: Declared-rule runs in this process: on the compiled loop, or on the
#: generic loop because no compiler was available.  Kept out of
#: :class:`RunResult`, whose bytes feed the result digests.
declared_runs = {"compiled": 0, "fallback": 0}


def validate_run_budget(
    max_time: "float | None",
    max_events: "int | None",
    target_ratio: "float | None",
    thresholds: "Sequence[float]",
    divergence_ratio: "float | None",
) -> None:
    """Reject a run budget no kernel can honour, with one message each.

    Every bound must be a positive number where given (NaN is not), and
    at least one of ``max_time``, ``max_events`` and ``target_ratio``
    must be given.  The scalar and vectorized kernels both validate
    through here, so they raise the same :class:`SimulationError`.
    """
    if max_time is None and max_events is None and target_ratio is None:
        raise SimulationError(
            "provide at least one of max_time, max_events, target_ratio"
        )
    # ``not x > 0`` rather than ``x <= 0``: it also rejects NaN.
    if max_time is not None and not max_time > 0:
        raise SimulationError(f"max_time must be positive, got {max_time}")
    if max_events is not None and not max_events >= 1:
        raise SimulationError(f"max_events must be positive, got {max_events}")
    if target_ratio is not None and not target_ratio > 0:
        raise SimulationError(f"target_ratio must be positive, got {target_ratio}")
    for threshold in thresholds:
        if not threshold > 0:
            raise SimulationError(f"thresholds must be positive, got {threshold}")
    if divergence_ratio is not None and not divergence_ratio > 0:
        raise SimulationError(
            f"divergence_ratio must be positive, got {divergence_ratio}"
        )


class Simulator:
    """Simulate one algorithm on one graph.

    Parameters
    ----------
    graph:
        The (connected) graph to run on.
    algorithm:
        Any :class:`~repro.algorithms.base.GossipAlgorithm`.
    initial_values:
        Length-``n`` initial value vector.
    clock:
        Optional clock process (anything implementing ``next_batch``);
        defaults to rate-1 Poisson clocks per edge seeded from ``seed``.
    seed:
        Seed for the default clock and the algorithm's random stream.
        (When independence between the two matters, build the clock
        explicitly from its own stream — :class:`MonteCarloRunner` does
        this, giving every replicate separate clock / workload /
        algorithm substreams.)
    """

    def __init__(
        self,
        graph: Graph,
        algorithm: GossipAlgorithm,
        initial_values: "Sequence[float]",
        *,
        clock: "object | None" = None,
        seed: "int | np.random.Generator | None" = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        recompute_every: int = DEFAULT_RECOMPUTE_EVERY,
    ) -> None:
        values = np.asarray(initial_values, dtype=np.float64)
        if values.shape != (graph.n_vertices,):
            raise SimulationError(
                f"initial_values must have shape ({graph.n_vertices},), "
                f"got {values.shape}"
            )
        if graph.n_edges == 0:
            raise SimulationError("cannot simulate on a graph with no edges")
        if batch_size < 1:
            raise SimulationError(f"batch_size must be positive, got {batch_size}")
        if recompute_every < 1:
            raise SimulationError(
                f"recompute_every must be positive, got {recompute_every}"
            )
        rng = as_generator(seed)
        self.graph = graph
        self.algorithm = algorithm
        self.initial_values = values.copy()
        self.clock = clock if clock is not None else PoissonEdgeClocks(
            graph.n_edges, seed=rng
        )
        clock_edges = getattr(self.clock, "n_edges", None)
        if clock_edges is None or not callable(
            getattr(self.clock, "next_batch", None)
        ):
            raise SimulationError(
                f"clock object {type(self.clock).__name__!r} does not "
                "implement the batch protocol (n_edges attribute + "
                "next_batch method)"
            )
        if clock_edges != graph.n_edges:
            raise SimulationError(
                f"clock models {clock_edges} edges but the "
                f"graph has {graph.n_edges}"
            )
        self.batch_size = int(batch_size)
        self.recompute_every = int(recompute_every)
        self._algorithm_rng = rng

    def run(
        self,
        *,
        max_time: "float | None" = None,
        max_events: "int | None" = None,
        target_ratio: "float | None" = None,
        thresholds: "Sequence[float]" = (math.e**-2,),
        recorder: "TraceRecorder | None" = None,
        divergence_ratio: "float | None" = 1e9,
    ) -> RunResult:
        """Run until a budget or the variance target is hit.

        Parameters
        ----------
        max_time:
            Stop after the first event at or beyond this absolute time.
        max_events:
            Stop after this many events (defaults to a hard safety cap
            when neither other budget is given).
        target_ratio:
            Stop once ``var/var0 <= target_ratio``.  For non-monotone
            algorithms pass a value well below the threshold of interest
            so late excursions are observed before stopping.
        thresholds:
            Variance-ratio thresholds whose crossings to record.
        recorder:
            Optional :class:`TraceRecorder`; receives samples every
            ``recorder.sample_every`` events plus the endpoints.
        divergence_ratio:
            Abort (``stopped_by = "diverged"``) once ``var/var0`` exceeds
            this factor — a guard against unstable algorithms (e.g. the
            async second-order adaptation at aggressive momentum) burning
            the whole event budget.  ``None`` disables the guard.
        """
        validate_run_budget(
            max_time, max_events, target_ratio, thresholds, divergence_ratio
        )
        event_cap = max_events if max_events is not None else DEFAULT_MAX_EVENTS

        x_array = self.initial_values.copy()
        n = len(x_array)
        variance_0 = float(np.var(x_array))
        sum_0 = float(x_array.sum())

        self.algorithm.setup(self.graph, x_array, self._algorithm_rng)

        crossings = {float(thr): Crossing(threshold=float(thr)) for thr in thresholds}
        if variance_0 == 0.0:
            # Already averaged; nothing to do.
            return RunResult(
                values=x_array,
                duration=0.0,
                n_events=0,
                n_updates=0,
                variance_initial=0.0,
                variance_final=0.0,
                sum_initial=sum_0,
                sum_final=sum_0,
                crossings=crossings,
                stopped_by="target_ratio",
            )

        # Absolute-variance thresholds (avoid a division per event).
        tracked = sorted(crossings.values(), key=lambda c: -c.threshold)
        thr_abs = [c.threshold * variance_0 for c in tracked]
        first_below: "list[float | None]" = [None] * len(tracked)
        last_above = [0.0] * len(tracked)
        target_abs = (
            target_ratio * variance_0 if target_ratio is not None else None
        )
        divergence_abs = (
            divergence_ratio * variance_0 if divergence_ratio is not None else None
        )

        rule = None if recorder is not None else declared_rule(self.algorithm)
        if isinstance(rule, SparseCutRule) and rule.oracle_sides is not None:
            rule = None
        run_batch = None
        if rule is not None:
            run_batch = load_loop()
            declared_runs["fallback" if run_batch is None else "compiled"] += 1
        if run_batch is not None:
            x = x_array.copy()
            n_events, n_updates, now, stopped_by = self._run_compiled(
                run_batch,
                rule,
                x,
                sum_0,
                float(x_array @ x_array),
                thr_abs,
                first_below,
                last_above,
                target_abs,
                divergence_abs,
                max_time,
                event_cap,
                variance_0,
            )
        else:
            # --- hot-loop state (plain Python scalars and lists) ---
            x = x_array.tolist()
            edges_u = self.graph.edges[:, 0].tolist()
            edges_v = self.graph.edges[:, 1].tolist()
            tick_counts = [0] * self.graph.n_edges
            total = sum_0
            square_sum = float(x_array @ x_array)
            inv_n = 1.0 / n

            on_tick = self.algorithm.on_tick
            batch_size = self.batch_size
            next_recompute = self.recompute_every
            sample_every = recorder.sample_every if recorder is not None else 0
            next_sample = sample_every if recorder is not None else -1

            n_events = 0
            n_updates = 0
            now = 0.0
            variance = variance_0
            stopped_by = "max_events"
            last_recorded_event = -1
            if recorder is not None:
                recorder.record(0.0, variance_0, x)
                last_recorded_event = 0

        running = run_batch is None
        while running:
            remaining = event_cap - n_events
            if remaining <= 0:
                stopped_by = "max_events"
                break
            times, edge_ids = self.clock.next_batch(min(batch_size, remaining))
            if len(times) == 0:
                stopped_by = "clock_exhausted"
                break
            times_list = times.tolist()
            edges_list = edge_ids.tolist()
            for t, e in zip(times_list, edges_list):
                n_events += 1
                count = tick_counts[e] + 1
                tick_counts[e] = count
                u = edges_u[e]
                v = edges_v[e]
                result = on_tick(e, u, v, t, count, x)
                if result is not None:
                    if type(result) is tuple:
                        new_u, new_v = result
                        old_u = x[u]
                        old_v = x[v]
                        square_sum += (
                            new_u * new_u
                            + new_v * new_v
                            - old_u * old_u
                            - old_v * old_v
                        )
                        total += new_u + new_v - old_u - old_v
                        x[u] = new_u
                        x[v] = new_v
                    else:
                        # General update: iterable of (vertex, value)
                        # pairs — used by multi-hop algorithms (e.g.
                        # geographic gossip) that rewrite non-adjacent
                        # nodes on one tick.
                        for vertex, new_value in result:
                            old_value = x[vertex]
                            square_sum += (
                                new_value * new_value - old_value * old_value
                            )
                            total += new_value - old_value
                            x[vertex] = new_value
                    n_updates += 1
                    if n_updates >= next_recompute:
                        refreshed = np.asarray(x, dtype=np.float64)
                        total = float(refreshed.sum())
                        square_sum = float(refreshed @ refreshed)
                        next_recompute = n_updates + self.recompute_every
                    mean = total * inv_n
                    variance = square_sum * inv_n - mean * mean
                    if variance < 0.0:  # floating-point undershoot near 0
                        variance = 0.0
                now = t
                for i in range(len(tracked)):
                    if variance > thr_abs[i]:
                        last_above[i] = t
                    elif first_below[i] is None:
                        first_below[i] = t
                if n_events == next_sample:
                    recorder.record(t, variance, x)
                    last_recorded_event = n_events
                    next_sample += sample_every
                if target_abs is not None and variance <= target_abs:
                    stopped_by = "target_ratio"
                    running = False
                    break
                if divergence_abs is not None and (
                    variance > divergence_abs or variance != variance
                ):
                    stopped_by = "diverged"
                    running = False
                    break
                if max_time is not None and t >= max_time:
                    stopped_by = "max_time"
                    running = False
                    break

        final = np.asarray(x, dtype=np.float64)
        variance_final = float(np.var(final))
        if recorder is not None and last_recorded_event != n_events:
            # The final event may coincide with a periodic sample (or the
            # run may have processed no events at all); recording again
            # would duplicate the trace endpoint.
            recorder.record(now, variance_final, x)
        for record, below, above in zip(tracked, first_below, last_above):
            record.first_below = below
            record.last_above = above
        return RunResult(
            values=final,
            duration=now,
            n_events=n_events,
            n_updates=n_updates,
            variance_initial=variance_0,
            variance_final=variance_final,
            sum_initial=sum_0,
            sum_final=float(final.sum()),
            crossings=crossings,
            stopped_by=stopped_by,
            trace_times=recorder.times if recorder is not None else None,
            trace_variances=recorder.variances if recorder is not None else None,
        )

    def _run_compiled(
        self,
        run_batch: "Callable[..., int]",
        rule: "PairwiseRule",
        x: np.ndarray,
        total: float,
        square_sum: float,
        thr_abs: "list[float]",
        first_below: "list[float | None]",
        last_above: "list[float]",
        target_abs: "float | None",
        divergence_abs: "float | None",
        max_time: "float | None",
        event_cap: int,
        variance: float,
    ) -> "tuple[int, int, float, str]":
        """The event loop for a declared pairwise rule, in compiled C.

        Bit-identical to the generic loop in :meth:`run` (see
        ``_loop.c``).  One ``run_batch`` call runs a clock batch; it
        returns early at a ``recompute_every`` boundary, where the sums
        are refreshed here with numpy exactly as the generic loop does,
        and at a stop.  It writes ``x``, ``first_below`` and
        ``last_above`` in place, writes the rule's per-run state back to
        the algorithm, and returns ``(n_events, n_updates, now,
        stopped_by)``.

        A rule that draws per tick draws one block per clock batch, of
        exactly the batch's length, right after ``next_batch``.  A run
        that stops mid-batch restores the generator to its state before
        the block and redraws only the ticks consumed, so results and
        the generator's final state match the generic loop's scalar
        draws even when the clock shares the generator.
        """
        n_edges = self.graph.n_edges
        state = LoopState()
        # Every array the state points into stays referenced by a local
        # until the run returns.
        ops = np.full(n_edges, SparseCutRule.MEAN, dtype=np.int8)
        edges_u = np.ascontiguousarray(self.graph.edges[:, 0], dtype=np.int64)
        edges_v = np.ascontiguousarray(self.graph.edges[:, 1], dtype=np.int64)
        # The generator setup() was handed; ``draw_block(k)`` draws the
        # next k per-tick values of a rule that draws.
        rng = self._algorithm_rng
        draw_block = None
        swaps: "tuple[Swap, ...]" = ()
        kept: "list[tuple[list[float], np.ndarray]]" = []
        if isinstance(rule, SparseCutRule):
            ops = np.ascontiguousarray(rule.edge_class, dtype=np.int8)
            swaps = rule.swaps
            swap_a = np.zeros(n_edges, dtype=np.int64)
            swap_b = np.zeros(n_edges, dtype=np.int64)
            swap_gain = np.zeros(n_edges)
            swap_epoch = np.ones(n_edges, dtype=np.int64)
            for swap in swaps:
                swap_a[swap.edge] = swap.a
                swap_b[swap.edge] = swap.b
                swap_gain[swap.edge] = swap.gain
                swap_epoch[swap.edge] = swap.epoch_length
            swap_ticks = np.zeros(n_edges, dtype=np.int64)
            swaps_fired = np.zeros(n_edges, dtype=np.int64)
            state.swap_a = swap_a.ctypes.data
            state.swap_b = swap_b.ctypes.data
            state.swap_gain = swap_gain.ctypes.data
            state.swap_epoch = swap_epoch.ctypes.data
            state.swap_ticks = swap_ticks.ctypes.data
            state.swaps_fired = swaps_fired.ctypes.data
        elif isinstance(rule, ConvexRule):
            ops[:] = _CONVEX
            state.alpha = rule.alpha
        elif isinstance(rule, PushSumRule):
            ops[:] = _PUSH
            mass = np.array(rule.mass)
            weight = np.array(rule.weight)
            kept = [(rule.mass, mass), (rule.weight, weight)]
            state.mass = mass.ctypes.data
            state.weight = weight.ctypes.data
            draw_block = rng.random
        elif isinstance(rule, SecondOrderRule):
            ops[:] = _SECOND_ORDER
            previous = np.array(rule.previous)
            kept = [(rule.previous, previous)]
            state.previous = previous.ctypes.data
            state.momentum = rule.beta
        elif isinstance(rule, RandomConvexRule):
            ops[:] = _RANDOM_CONVEX
            draw_block = functools.partial(rng.uniform, rule.low, rule.high)
        elif isinstance(rule, TwoTimescaleRule):
            ops[rule.cut_edges] = _SLOW
            state.slow_step = rule.slow_step
            state.harmonic = rule.harmonic
            state.tau = rule.tau
        # C indexes these arrays by edge and vertex without bounds checks.
        n = len(x)
        if (
            ops.shape != (n_edges,)
            or any(array.shape != (n,) for _, array in kept)
            or any(
                not (0 <= swap.a < n and 0 <= swap.b < n and swap.epoch_length >= 1)
                for swap in swaps
            )
        ):
            raise SimulationError("the declared rule does not fit the graph")
        state.ops = ops.ctypes.data
        state.edges_u = edges_u.ctypes.data
        state.edges_v = edges_v.ctypes.data
        state.x = x.ctypes.data

        thresholds = np.array(thr_abs, dtype=np.float64)
        below = np.zeros(len(thr_abs))
        below_seen = np.zeros(len(thr_abs), dtype=np.int8)
        above = np.array(last_above, dtype=np.float64)
        state.n_thresholds = len(thr_abs)
        state.thr_abs = thresholds.ctypes.data
        state.first_below = below.ctypes.data
        state.below_seen = below_seen.ctypes.data
        state.last_above = above.ctypes.data
        # An absent stop rule is off; its bound is never read.
        state.has_target = target_abs is not None
        state.target_abs = target_abs or 0.0
        state.has_divergence = divergence_abs is not None
        state.divergence_abs = divergence_abs or 0.0
        state.has_max_time = max_time is not None
        state.max_time = max_time or 0.0
        state.inv_n = 1.0 / n
        state.total = total
        state.square_sum = square_sum
        state.variance = variance
        recompute_every = self.recompute_every
        state.next_recompute = recompute_every

        batch_size = self.batch_size
        next_batch = self.clock.next_batch
        stopped_by = "max_events"
        batch_start = 0
        batch_length = 0
        while True:
            remaining = event_cap - state.n_events
            if remaining <= 0:
                stopped_by = "max_events"
                break
            times, edge_ids = next_batch(min(batch_size, remaining))
            batch_length = len(times)
            if batch_length == 0:
                stopped_by = "clock_exhausted"
                break
            # C reads exactly what it is given: check before it reads.
            times = np.ascontiguousarray(times, dtype=np.float64)
            edge_ids = np.ascontiguousarray(edge_ids, dtype=np.int64)
            if len(edge_ids) != batch_length:
                raise SimulationError(
                    f"clock batch has {batch_length} times but "
                    f"{len(edge_ids)} edge ids"
                )
            if edge_ids.min() < 0 or edge_ids.max() >= n_edges:
                raise SimulationError(
                    f"clock produced an edge id outside [0, {n_edges})"
                )
            draws = None
            if draw_block is not None:
                saved_state = rng.bit_generator.state
                draws = np.ascontiguousarray(draw_block(batch_length))
            batch_start = state.n_events
            state.position = 0
            arguments = (
                state,
                times.ctypes.data,
                edge_ids.ctypes.data,
                batch_length,
                None if draws is None else draws.ctypes.data,
            )
            status = run_batch(*arguments)
            while status == REFRESH:
                state.total = float(x.sum())
                state.square_sum = float(x @ x)
                state.next_recompute = state.n_updates + recompute_every
                status = run_batch(*arguments)
            if status != BATCH_DONE:
                stopped_by = _STOPS[status]
                break

        # Stopped mid-batch: leave the generator where the per-tick draws
        # of the consumed events would have.
        consumed = state.n_events - batch_start
        if draw_block is not None and consumed < batch_length:
            rng.bit_generator.state = saved_state
            draw_block(consumed)
        for target, array in kept:
            target[:] = array.tolist()
        for i in range(len(thr_abs)):
            last_above[i] = float(above[i])
            if below_seen[i]:
                first_below[i] = float(below[i])
        for swap in swaps:
            if swaps_fired[swap.edge]:
                self.algorithm.add_swaps(  # type: ignore[attr-defined]
                    swap.edge, int(swaps_fired[swap.edge])
                )
        if state.cut_ticks:
            self.algorithm.add_cut_ticks(state.cut_ticks)  # type: ignore[attr-defined]
        return state.n_events, state.n_updates, state.now, stopped_by


def simulate(
    graph: Graph,
    algorithm: GossipAlgorithm,
    initial_values: "Sequence[float]",
    *,
    seed: "int | np.random.Generator | None" = None,
    clock: "object | None" = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    recompute_every: int = DEFAULT_RECOMPUTE_EVERY,
    **run_kwargs: object,
) -> RunResult:
    """One-call convenience: build a :class:`Simulator` and run it.

    ``batch_size`` and ``recompute_every`` are constructor knobs, not
    ``run()`` kwargs, so they are forwarded explicitly — leaving them in
    ``run_kwargs`` would either be silently dropped or rejected by
    ``run()`` depending on the call.
    """
    simulator = Simulator(
        graph,
        algorithm,
        initial_values,
        clock=clock,
        seed=seed,
        batch_size=batch_size,
        recompute_every=recompute_every,
    )
    return simulator.run(**run_kwargs)  # type: ignore[arg-type]
