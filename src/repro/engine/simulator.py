"""The event-driven simulator.

Executes one algorithm on one graph under one clock process, maintaining
exact incremental statistics:

* the value vector ``x`` (kept as a plain Python list in the hot loop —
  scalar indexing of lists is several times faster than numpy scalars,
  and the loop runs millions of iterations);
* the running sum ``T = sum(x)`` and square-sum ``S = sum(x^2)``, updated
  in O(1) per event and refreshed from scratch periodically to cancel
  floating-point drift, giving the population variance
  ``var = S/n - (T/n)^2`` after every single event;
* per-edge tick counts (Algorithm A's schedule lives on them);
* threshold-crossing records for the variance ratio (both the first time
  the ratio falls below each threshold and the last time it was above —
  the paper's ``T_av`` needs the *last*, because non-convex updates make
  excursions).

The model is the paper's: i.i.d. rate-1 Poisson clocks per edge by
default; deterministic schedules can be injected for tests.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

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

#: Op codes of the declared-rule loop's other updates, next to Algorithm
#: A's edge classes (SparseCutRule.SILENCED/MEAN/DESIGNATED are 0, 1, 2).
_CONVEX = 3
_PUSH = 4
_SECOND_ORDER = 5
_RANDOM_CONVEX = 6
_SLOW = 7


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

        # --- hot-loop state (plain Python scalars and lists) ---
        x = x_array.tolist()
        edges_u = self.graph.edges[:, 0].tolist()
        edges_v = self.graph.edges[:, 1].tolist()
        tick_counts = [0] * self.graph.n_edges
        total = sum_0
        square_sum = float(x_array @ x_array)
        inv_n = 1.0 / n

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

        rule = None if recorder is not None else declared_rule(self.algorithm)
        if isinstance(rule, SparseCutRule) and rule.oracle_sides is not None:
            rule = None
        if rule is not None:
            n_events, n_updates, now, stopped_by = self._run_declared(
                rule,
                x,
                edges_u,
                edges_v,
                total,
                square_sum,
                thr_abs,
                first_below,
                last_above,
                target_abs,
                divergence_abs,
                max_time,
                event_cap,
                variance_0,
            )

        running = rule is None
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

    def _run_declared(
        self,
        rule: "PairwiseRule",
        x: "list[float]",
        edges_u: "list[int]",
        edges_v: "list[int]",
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
        """The event loop specialized to a declared pairwise rule.

        Bit-identical to the generic loop in :meth:`run`: the same clock
        requests, the same float expressions in the same order, the
        variance recomputed only on applied updates, the sums refreshed
        every ``recompute_every`` updates, and per event the crossing,
        target, divergence and max-time checks in that order.  It writes
        ``x``, ``first_below`` and ``last_above`` in place and returns
        ``(n_events, n_updates, now, stopped_by)``.

        Per-edge op codes replace the ``on_tick`` call: the rule's edge
        classes for a sparse-cut rule, internal and cut codes for the
        two-timescale rule, a constant code for the others.  Threshold
        crossings cost one chained comparison per event: between two
        crossings the variance stays in one band of the sorted
        thresholds, so the loop only notes the band's latest event time
        and writes it out when the band changes.

        A rule that draws per tick draws one block per clock batch, of
        exactly the batch's length, right after ``next_batch``.  A run
        that stops mid-batch restores the generator to its state before
        the block and redraws only the ticks consumed, so results and
        the generator's final state match the generic loop's scalar
        draws even when the clock shares the generator.
        """
        silenced = SparseCutRule.SILENCED
        mean_op = SparseCutRule.MEAN
        designated_op = SparseCutRule.DESIGNATED
        convex_op = _CONVEX
        push_op = _PUSH
        second_order_op = _SECOND_ORDER
        random_convex_op = _RANDOM_CONVEX
        slow_op = _SLOW
        n_edges = len(edges_u)
        # The generator setup() was handed; ``draw_block(k)`` draws the
        # next k per-tick values of a rule that draws.
        rng = self._algorithm_rng
        draw_block = None
        swaps: "tuple[Swap, ...]" = ()
        cut_ticks = 0
        if isinstance(rule, SparseCutRule):
            ops = rule.edge_class.tolist()
            swaps = rule.swaps
            swap_of: "list[Swap | None]" = [None] * n_edges
            for swap in swaps:
                swap_of[swap.edge] = swap
            swap_ticks = [0] * n_edges
            swaps_fired = [0] * n_edges
        elif isinstance(rule, ConvexRule):
            ops = [convex_op] * n_edges
            alpha = rule.alpha
            beta = 1.0 - alpha
        elif isinstance(rule, PushSumRule):
            ops = [push_op] * n_edges
            mass = rule.mass
            weight = rule.weight
            draw_block = rng.random
        elif isinstance(rule, SecondOrderRule):
            ops = [second_order_op] * n_edges
            momentum = rule.beta
            memory = 1.0 - momentum
            previous = rule.previous
        elif isinstance(rule, RandomConvexRule):
            ops = [random_convex_op] * n_edges
            draw_block = functools.partial(rng.uniform, rule.low, rule.high)
        elif isinstance(rule, TwoTimescaleRule):
            ops = [mean_op] * n_edges
            for e in rule.cut_edges.tolist():
                ops[e] = slow_op
            slow_step = rule.slow_step
            harmonic = rule.harmonic
            tau = rule.tau
        else:
            ops = [mean_op] * n_edges

        # Stop rules with absent budgets replaced by never-true bounds;
        # an event passing the combined test re-checks the exact rules.
        has_target = target_abs is not None
        has_divergence = divergence_abs is not None
        has_max_time = max_time is not None
        target_lo = target_abs if has_target else -math.inf
        divergence_hi = divergence_abs if has_divergence else math.inf
        time_hi = max_time if has_max_time else math.inf

        # Threshold band: ``band_lo < variance <= band_hi`` means this
        # event's crossing writes equal the last scanned event's.  The
        # empty initial band sends the first event to the scan.
        n_thresholds = len(thr_abs)
        band_lo = math.inf
        band_hi = -math.inf
        band_start = n_thresholds
        band_last: "float | None" = None

        inv_n = 1.0 / len(x)
        recompute_every = self.recompute_every
        next_recompute = recompute_every
        batch_size = self.batch_size
        next_batch = self.clock.next_batch
        n_events = 0
        n_updates = 0
        now = 0.0
        stopped_by = "max_events"
        batch_start = 0
        batch_length = 0

        running = True
        while running:
            remaining = event_cap - n_events
            if remaining <= 0:
                stopped_by = "max_events"
                break
            times, edge_ids = next_batch(min(batch_size, remaining))
            batch_length = len(times)
            if batch_length == 0:
                stopped_by = "clock_exhausted"
                break
            if draw_block is not None:
                saved_state = rng.bit_generator.state
                draw = iter(draw_block(batch_length).tolist()).__next__
            batch_start = n_events
            for t, e in zip(times.tolist(), edge_ids.tolist()):
                n_events += 1
                op = ops[e]
                if op == mean_op:
                    u = edges_u[e]
                    v = edges_v[e]
                    old_u = x[u]
                    old_v = x[v]
                    new_u = new_v = 0.5 * (old_u + old_v)
                elif op == convex_op:
                    u = edges_u[e]
                    v = edges_v[e]
                    old_u = x[u]
                    old_v = x[v]
                    new_u = alpha * old_u + beta * old_v
                    new_v = alpha * old_v + beta * old_u
                elif op == push_op:
                    u = edges_u[e]
                    v = edges_v[e]
                    old_u = x[u]
                    old_v = x[v]
                    if draw() < 0.5:
                        sender, receiver = u, v
                    else:
                        sender, receiver = v, u
                    half_mass = 0.5 * mass[sender]
                    half_weight = 0.5 * weight[sender]
                    mass[sender] = half_mass
                    weight[sender] = half_weight
                    mass[receiver] += half_mass
                    weight[receiver] += half_weight
                    new_u = mass[u] / weight[u]
                    new_v = mass[v] / weight[v]
                elif op == second_order_op:
                    u = edges_u[e]
                    v = edges_v[e]
                    old_u = x[u]
                    old_v = x[v]
                    pair_mean = 0.5 * (old_u + old_v)
                    new_u = momentum * pair_mean + memory * previous[u]
                    new_v = momentum * pair_mean + memory * previous[v]
                    previous[u] = old_u
                    previous[v] = old_v
                elif op == random_convex_op:
                    u = edges_u[e]
                    v = edges_v[e]
                    old_u = x[u]
                    old_v = x[v]
                    alpha = draw()
                    beta = 1.0 - alpha
                    new_u = alpha * old_u + beta * old_v
                    new_v = alpha * old_v + beta * old_u
                elif op == slow_op:
                    cut_ticks += 1
                    if harmonic:
                        step = slow_step / (1.0 + (cut_ticks - 1) / tau)
                    else:
                        step = slow_step
                    u = edges_u[e]
                    v = edges_v[e]
                    old_u = x[u]
                    old_v = x[v]
                    new_u = old_u + step * (old_v - old_u)
                    new_v = old_v + step * (old_u - old_v)
                elif op == designated_op:
                    count = swap_ticks[e] + 1
                    swap_ticks[e] = count
                    swap = swap_of[e]
                    if count % swap.epoch_length != 0:
                        op = silenced
                    else:
                        swaps_fired[e] += 1
                        u = edges_u[e]
                        v = edges_v[e]
                        old_u = x[u]
                        old_v = x[v]
                        a = swap.a
                        b = swap.b
                        transfer = swap.gain * (x[b] - x[a])
                        new_a = x[a] + transfer
                        new_b = x[b] - transfer
                        if u == a:
                            new_u, new_v = new_a, new_b
                        else:
                            new_u, new_v = new_b, new_a
                if op:
                    square_sum += (
                        new_u * new_u + new_v * new_v - old_u * old_u - old_v * old_v
                    )
                    total += new_u + new_v - old_u - old_v
                    x[u] = new_u
                    x[v] = new_v
                    n_updates += 1
                    if n_updates >= next_recompute:
                        refreshed = np.asarray(x, dtype=np.float64)
                        total = float(refreshed.sum())
                        square_sum = float(refreshed @ refreshed)
                        next_recompute = n_updates + recompute_every
                    mean = total * inv_n
                    variance = square_sum * inv_n - mean * mean
                    if variance < 0.0:  # floating-point undershoot near 0
                        variance = 0.0
                if band_lo < variance <= band_hi:
                    band_last = t
                else:
                    if band_last is not None:
                        for i in range(band_start, n_thresholds):
                            last_above[i] = band_last
                        band_last = None
                    band_start = n_thresholds
                    for i in range(n_thresholds):
                        if variance > thr_abs[i]:
                            last_above[i] = t
                            if band_start == n_thresholds:
                                band_start = i
                        elif first_below[i] is None:
                            first_below[i] = t
                    band_lo = (
                        thr_abs[band_start] if band_start < n_thresholds else -math.inf
                    )
                    band_hi = thr_abs[band_start - 1] if band_start else math.inf
                if not target_lo < variance <= divergence_hi or t >= time_hi:
                    if has_target and variance <= target_abs:
                        stopped_by = "target_ratio"
                        running = False
                        break
                    if has_divergence and (
                        variance > divergence_abs or variance != variance
                    ):
                        stopped_by = "diverged"
                        running = False
                        break
                    if has_max_time and t >= max_time:
                        stopped_by = "max_time"
                        running = False
                        break
            now = t

        # Stopped mid-batch: leave the generator where the per-tick draws
        # of the consumed events would have.
        consumed = n_events - batch_start
        if draw_block is not None and consumed < batch_length:
            rng.bit_generator.state = saved_state
            draw_block(consumed)
        if band_last is not None:
            for i in range(band_start, n_thresholds):
                last_above[i] = band_last
        for swap in swaps:
            if swaps_fired[swap.edge]:
                self.algorithm.add_swaps(  # type: ignore[attr-defined]
                    swap.edge, swaps_fired[swap.edge]
                )
        if cut_ticks:
            self.algorithm.add_cut_ticks(cut_ticks)  # type: ignore[attr-defined]
        return n_events, n_updates, now, stopped_by


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
