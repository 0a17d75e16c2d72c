"""The vectorized replicate-batch kernel.

Advances many replicates of **one configuration** in lockstep: the value
vectors live in a ``(n_replicates, n_nodes)`` float64 matrix and every
clock tick updates one ``(replicate, vertex)`` pair per row with a
handful of numpy gather/scatter operations, amortizing interpreter
overhead over the whole batch.  On eligible configurations this turns
the ~1 us/event cost of a Python event loop into tens of nanoseconds per
replicate-event at realistic batch widths (see
``benchmarks/results/BENCH_kernel_scaling.json``).

**Bit-identity.**  The kernel reproduces the scalar event loop's results
to the byte, not approximately.  The load-bearing facts:

* Each replicate gets its *own* clock object, built exactly as the
  scalar path builds it (same factory, same derived clock substream), and
  ``next_batch`` is called with the same batch-size sequence the scalar
  loop uses — so every replicate sees the identical event stream.  A
  replicate that stops mid-batch simply discards the surplus draws, just
  like the scalar loop does.
* The incremental ``T``/``S`` statistics are updated with the exact
  floating-point expression (and association order) of the scalar loop,
  refreshed from scratch on the same global update boundaries with the
  same per-row ``row.sum()`` / ``row @ row`` reductions.
* Per-tick algorithm randomness (``RandomConvexGossip``'s mixing weight)
  is pre-drawn per batch from each replicate's algorithm generator;
  numpy's ``Generator.uniform(size=k)`` consumes the bit stream exactly
  as ``k`` sequential scalar draws do.
* Eligible algorithms update on **every** tick, so all running
  replicates share one global event counter — what makes lockstep (and
  the shared recompute boundary) valid in the first place.

**Memory discipline.**  The hot loop never allocates: per-step
arithmetic lands in a reusable scratch arena (``out=`` everywhere), and
the big per-batch clock buffers are kept warm across batches and groups
— a fresh 64MB allocation costs more in page faults than the compute it
serves.  Batch draws are staged row-per-replicate and then transposed
with a cache-blocked kernel so that every step reads contiguous slices.

**Two lockstep loops.**  Always-update algorithms on unwrapped Poisson
clocks take the *dense* loop: one global event counter, every row
updates every tick.  Algorithm A (masked per-tick updates driven by the
edge class and the designated edge's epoch phase) and the lossy/failing
clock wrappers (delivered ticks per batch vary per replicate) take the
*generalized* loop: per-row update counts, a per-row variance cache, and
buffered per-replicate tick streams that replay the scalar loop's clock
request sequence exactly.  Routing between them is internal; both are
bit-identical to the scalar oracle.

**Eligibility.**  The public verdict lives in
:mod:`repro.engine.kernels.eligibility`: the algorithm's type must have
a registered update builder (exact type match — a subclass overriding
``on_tick`` must not silently take the fast path; the built-in
registrations are below), the clock must be the standard Poisson model
or one of the lossy/failing wrappers, and the run kwargs must carry no
recorder and no unknown keys.  Everything else falls back to the scalar
kernel, with reason codes surfaced through telemetry.
``docs/kernels.md`` walks through the rules.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro.algorithms.convex import ConvexGossip, RandomConvexGossip
from repro.algorithms.nonconvex import NonConvexSparseCutGossip
from repro.algorithms.rules import SparseCutRule
from repro.algorithms.vanilla import VanillaGossip
from repro.clocks.poisson import PoissonEdgeClocks
from repro.clocks.unreliable import (
    FailingPoissonClockFactory,
    LossyPoissonClockFactory,
)
from repro.engine.kernels.eligibility import (
    eligibility as _spec_eligibility,
    register_update,
    resolve_update as _resolve_update,
)
from repro.engine.kernels.base import SimulationKernel, replicate_substreams
from repro.engine.results import Crossing, RunResult
from repro.engine.simulator import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_MAX_EVENTS,
    DEFAULT_RECOMPUTE_EVERY,
    validate_run_budget,
)
from repro.errors import AlgorithmError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.engine.backends import ReplicateSpec

#: Largest replicate batch advanced as one lockstep group; bigger groups
#: are split (grouping never affects results, only memory: the per-batch
#: clock buffers are ``group x DEFAULT_BATCH_SIZE`` float64).
MAX_GROUP_SIZE = 2048

#: Clock factories whose processes deliver *fewer* ticks than requested
#: (dropped or dead edges) — they vectorize through the generalized
#: loop's buffered tick streams rather than the dense loop.
_WRAPPED_CLOCK_FACTORIES = (LossyPoissonClockFactory, FailingPoissonClockFactory)

_TILE_ROWS = 64
_TILE_COLS = 2048


def _transpose_into(dst: np.ndarray, src: np.ndarray) -> None:
    """Cache-blocked ``dst[:] = src.T``.

    A naive strided transpose walks one page per element and thrashes
    the TLB (~6x slower at 1024x8192 measured); small tiles keep both
    sides' working sets cache-resident.
    """
    n_rows, n_cols = src.shape
    for i0 in range(0, n_rows, _TILE_ROWS):
        s = src[i0 : i0 + _TILE_ROWS]
        d = dst[:, i0 : i0 + _TILE_ROWS]
        for j0 in range(0, n_cols, _TILE_COLS):
            d[j0 : j0 + _TILE_COLS] = s[:, j0 : j0 + _TILE_COLS].T


class _VanillaUpdate:
    """``x_u, x_v <- (x_u + x_v) / 2``, vectorized across replicates.

    Returns the *same* buffer twice; the caller exploits the identity to
    skip one multiply in the square-sum delta.
    """

    needs_rng = False

    def apply(
        self,
        x_u: np.ndarray,
        x_v: np.ndarray,
        aux: "np.ndarray | None",
        out_u: np.ndarray,
        out_v: np.ndarray,
        tmp: np.ndarray,
        tmp2: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        np.add(x_u, x_v, out=out_u)
        np.multiply(out_u, 0.5, out=out_u)
        return out_u, out_u


class _ConvexUpdate:
    """Fixed-``alpha`` symmetric convex update, vectorized."""

    needs_rng = False

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha

    def apply(
        self,
        x_u: np.ndarray,
        x_v: np.ndarray,
        aux: "np.ndarray | None",
        out_u: np.ndarray,
        out_v: np.ndarray,
        tmp: np.ndarray,
        tmp2: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        a = self.alpha
        b = 1.0 - a
        np.multiply(x_u, a, out=out_u)
        np.multiply(x_v, b, out=tmp)
        np.add(out_u, tmp, out=out_u)  # a*x_u + b*x_v
        np.multiply(x_v, a, out=out_v)
        np.multiply(x_u, b, out=tmp)
        np.add(out_v, tmp, out=out_v)  # a*x_v + b*x_u
        return out_u, out_v


class _RandomConvexUpdate:
    """Per-tick ``alpha ~ U[low, high]`` convex update, vectorized.

    ``aux`` carries each replicate's pre-drawn mixing weight for the
    current tick; the batched draw consumes each algorithm generator's
    bit stream exactly as the scalar loop's per-tick scalar draws do.
    """

    needs_rng = True

    def __init__(self, low: float, high: float) -> None:
        self.low = low
        self.high = high

    def fill(
        self, rngs: "Sequence[np.random.Generator]", k: int, out: np.ndarray
    ) -> None:
        low = self.low
        high = self.high
        for i, rng in enumerate(rngs):
            out[i, :k] = rng.uniform(low, high, size=k)

    def apply(
        self,
        x_u: np.ndarray,
        x_v: np.ndarray,
        aux: np.ndarray,
        out_u: np.ndarray,
        out_v: np.ndarray,
        tmp: np.ndarray,
        tmp2: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        np.subtract(1.0, aux, out=tmp2)  # b = 1 - a
        np.multiply(x_u, aux, out=out_u)
        np.multiply(x_v, tmp2, out=tmp)
        np.add(out_u, tmp, out=out_u)  # a*x_u + b*x_v
        np.multiply(x_v, aux, out=out_v)
        np.multiply(x_u, tmp2, out=tmp)
        np.add(out_v, tmp, out=out_v)  # a*x_v + b*x_u
        return out_u, out_v


class _NonConvexUpdate:
    """Algorithm A's per-tick state machine, staged for lockstep replay.

    Unlike the convex updates this one is **masked**: a tick's effect
    depends on the edge's class (internal → vanilla averaging,
    non-designated cut → nothing, designated → nothing except on every
    ``L``-th designated tick, when the non-convex swap fires).  The
    generalized loop stages per-tick op codes from :attr:`edge_class`
    plus a per-row running count of designated ticks, applies the
    vanilla rows vectorized, and computes the rare swap rows with the
    scalar oracle's exact Python-float arithmetic (including the
    ``oracle_means`` side-mean reads and the fixed return orientation).
    """

    needs_rng = False
    masked = True

    def __init__(self, rule: SparseCutRule) -> None:
        # The staged per-tick op codes are the rule's edge classes.
        self.rule = rule


# Each update below is made from the algorithm's declared rule
# (repro.algorithms.rules), the same declaration the scalar loop runs.


@register_update(VanillaGossip)
def _build_vanilla(algorithm: VanillaGossip) -> _VanillaUpdate:
    return _VanillaUpdate()  # MeanRule carries no constants


@register_update(ConvexGossip)
def _build_convex(algorithm: ConvexGossip) -> _ConvexUpdate:
    return _ConvexUpdate(algorithm.pairwise_rule().alpha)


@register_update(RandomConvexGossip)
def _build_random_convex(algorithm: RandomConvexGossip) -> _RandomConvexUpdate:
    rule = algorithm.pairwise_rule()
    return _RandomConvexUpdate(rule.low, rule.high)


@register_update(NonConvexSparseCutGossip)
def _build_nonconvex(algorithm: NonConvexSparseCutGossip) -> _NonConvexUpdate:
    return _NonConvexUpdate(algorithm.pairwise_rule())


class _Member:
    """One replicate's pre-lockstep state (setup mirrors the scalar path)."""

    __slots__ = (
        "position",
        "values",
        "variance_0",
        "sum_0",
        "square_sum_0",
        "crossings",
        "clock",
        "rng",
    )

    def __init__(self, position: int) -> None:
        self.position = position


class _Scratch:
    """Reusable lockstep buffers, kept warm across batches and groups.

    The big per-batch clock buffers are ~64MB at full width; allocating
    them fresh costs more in page faults than the arithmetic they feed.
    One growing arena per kernel instance amortizes that to zero after
    the first batch.  Callers slice leading views (``[:k, :A]``) so a
    shrunken group keeps using the same warm pages.
    """

    def __init__(self) -> None:
        self.rows = 0
        self.cols = 0
        self.has_aux = False
        self.has_ops = False

    def ensure(
        self, rows: int, cols: int, needs_aux: bool, needs_ops: bool = False
    ) -> None:
        if rows > self.rows or cols > self.cols:
            rows = max(rows, self.rows)
            cols = max(cols, self.cols)
            self.rows = rows
            self.cols = cols
            self.draw_t = np.empty((rows, cols))
            self.draw_fu = np.empty((rows, cols), dtype=np.int64)
            self.draw_fv = np.empty((rows, cols), dtype=np.int64)
            self.times_b = np.empty((cols, rows))
            self.fu_b = np.empty((cols, rows), dtype=np.int64)
            self.fv_b = np.empty((cols, rows), dtype=np.int64)
            self.f64_bufs = [np.empty(rows) for _ in range(10)]
            self.bool_bufs = [np.empty(rows, dtype=bool) for _ in range(5)]
            self.has_aux = False
            self.has_ops = False
        if needs_aux and not self.has_aux:
            self.draw_aux = np.empty((self.rows, self.cols))
            self.aux_b = np.empty((self.cols, self.rows))
            self.has_aux = True
        if needs_ops and not self.has_ops:
            self.draw_op = np.empty((self.rows, self.cols), dtype=np.int8)
            self.op_b = np.empty((self.cols, self.rows), dtype=np.int8)
            self.has_ops = True


class _TickStream:
    """A buffered per-replicate tick stream for the generalized loop.

    Wrapped clocks deliver *fewer* ticks than requested, and the RNG
    draws a clock consumes depend on the request-size sequence — so bit
    identity requires replaying the scalar loop's exact sequence:
    ``min(DEFAULT_BATCH_SIZE, event_cap - delivered_so_far)``.  The
    scalar loop processes each delivered batch fully before requesting
    again, so the sequence depends only on cumulative *delivered* ticks
    — which makes buffering safe: prefetching ahead of lockstep
    consumption issues the identical requests, just earlier.  (A
    replicate that stops mid-buffer simply discards the surplus, exactly
    like the scalar loop discards the rest of its batch.)
    """

    __slots__ = (
        "clock",
        "event_cap",
        "received",
        "buffered",
        "chunks",
        "pos",
        "exhausted",
    )

    def __init__(self, clock: object, event_cap: int) -> None:
        self.clock = clock
        self.event_cap = event_cap
        self.received = 0
        self.buffered = 0
        self.chunks: "list[tuple[np.ndarray, np.ndarray]]" = []
        self.pos = 0  # consumed prefix of chunks[0]
        self.exhausted = False

    def prefetch(self, k: int) -> int:
        """Buffer up to ``k`` ticks; returns how many are available.

        A return below ``k`` means the clock is exhausted (an empty
        delivery, or the event cap consumed) — and ``0`` means this
        replicate has no next event at all.
        """
        while self.buffered < k and not self.exhausted:
            q = min(DEFAULT_BATCH_SIZE, self.event_cap - self.received)
            if q <= 0:
                self.exhausted = True
                break
            times, edge_ids = self.clock.next_batch(q)
            if len(times) == 0:
                self.exhausted = True
                break
            self.chunks.append((times, edge_ids))
            self.received += len(times)
            self.buffered += len(times)
        return self.buffered if self.buffered < k else k

    def take_into(self, k: int, out_t: np.ndarray, out_e: np.ndarray) -> None:
        """Pop exactly ``k`` buffered ticks (prefetch must cover them)."""
        filled = 0
        while filled < k:
            times, edge_ids = self.chunks[0]
            take = min(len(times) - self.pos, k - filled)
            out_t[filled : filled + take] = times[self.pos : self.pos + take]
            out_e[filled : filled + take] = edge_ids[self.pos : self.pos + take]
            self.pos += take
            filled += take
            self.buffered -= take
            if self.pos == len(times):
                self.chunks.pop(0)
                self.pos = 0


class VectorizedBatchKernel(SimulationKernel):
    """Advance same-configuration replicates in numpy lockstep."""

    name = "vectorized"

    def __init__(self) -> None:
        self._scratch = _Scratch()

    def supports(self, spec: "ReplicateSpec") -> bool:
        return bool(_spec_eligibility(spec))

    def execute(self, specs: "Sequence[ReplicateSpec]") -> "list[RunResult]":
        """Run a batch of same-configuration specs in lockstep.

        Callers (the dispatcher) group specs by configuration; this
        method only splits oversized groups, which cannot affect results
        because every replicate's streams and arithmetic are independent
        of group composition.
        """
        results: "list[RunResult]" = []
        for start in range(0, len(specs), MAX_GROUP_SIZE):
            results.extend(self._run_group(specs[start : start + MAX_GROUP_SIZE]))
        return results

    # -- group execution -------------------------------------------------

    def _run_group(self, specs: "Sequence[ReplicateSpec]") -> "list[RunResult]":
        update = _resolve_update(specs[0].algorithm_factory())
        if update is None:
            raise SimulationError(
                "VectorizedBatchKernel received an ineligible spec; "
                "dispatch through repro.engine.kernels.execute_specs"
            )
        if getattr(update, "masked", False) or isinstance(
            specs[0].clock_factory, _WRAPPED_CLOCK_FACTORIES
        ):
            return self._run_group_general(specs, update)
        return self._run_group_dense(specs, update)

    def _run_group_dense(
        self, specs: "Sequence[ReplicateSpec]", update: Any
    ) -> "list[RunResult]":
        graph = specs[0].graph
        run_kwargs = dict(specs[0].run_kwargs)
        (max_time, max_events, target_ratio, thresholds, divergence_ratio) = (
            _parse_run_kwargs(run_kwargs)
        )
        if graph.n_edges == 0:
            raise SimulationError("cannot simulate on a graph with no edges")
        event_cap = max_events if max_events is not None else DEFAULT_MAX_EVENTS
        n = graph.n_vertices
        inv_n = 1.0 / n

        results: "list[RunResult | None]" = [None] * len(specs)
        members = self._setup_members(specs, graph, thresholds, results)
        if not members:
            return results  # type: ignore[return-value]

        # --- dense lockstep state ---
        # Row i always belongs to ``live[i]``; a replicate that stops is
        # finalized on the spot and *compacted out* of every array, so
        # the hot loop only ever touches contiguous full-width vectors
        # (no ``[rows]`` gather/scatter indirection on any step).
        live = list(members)
        n_live = len(live)
        X = np.stack([member.values for member in live])  # (A, n) C-order
        flat = X.reshape(-1)  # shared view; rebuilt after compaction
        total = np.array([member.sum_0 for member in live])
        square_sum = np.array([member.square_sum_0 for member in live])
        variance_0 = np.array([member.variance_0 for member in live])
        # Deduped thresholds in the scalar loop's tracking order
        # (descending), as absolute variances per replicate.  Stored
        # (threshold, replicate) so each threshold's slice is contiguous.
        tracked_thresholds = sorted(live[0].crossings, reverse=True)
        n_thresholds = len(tracked_thresholds)
        thr_abs = np.outer(np.asarray(tracked_thresholds), variance_0)
        first_below = np.full((n_thresholds, n_live), np.nan)
        below_unset = np.ones((n_thresholds, n_live), dtype=bool)
        below_active = [True] * n_thresholds
        last_above = np.zeros((n_thresholds, n_live))
        target_abs = None if target_ratio is None else target_ratio * variance_0
        divergence_abs = (
            None if divergence_ratio is None else divergence_ratio * variance_0
        )
        check_stop = (
            target_abs is not None
            or divergence_abs is not None
            or max_time is not None
        )
        clocks = [member.clock for member in live]
        rngs = [member.rng for member in live]

        end_u = np.ascontiguousarray(graph.edges[:, 0]).astype(np.int64)
        end_v = np.ascontiguousarray(graph.edges[:, 1]).astype(np.int64)

        def finalize(i: int, duration: float, n_events: int, label: str) -> None:
            """Emit row ``i``'s RunResult (reads the *current* arrays)."""
            member = live[i]
            final = X[i].copy()
            tracked = sorted(member.crossings.values(), key=lambda c: -c.threshold)
            for ki, record in enumerate(tracked):
                below_at = first_below[ki, i]
                record.first_below = (None if np.isnan(below_at) else float(below_at))
                record.last_above = float(last_above[ki, i])
            results[member.position] = RunResult(
                values=final,
                duration=float(duration),
                n_events=int(n_events),
                n_updates=int(n_events),
                variance_initial=member.variance_0,
                variance_final=float(np.var(final)),
                sum_initial=member.sum_0,
                sum_final=float(final.sum()),
                crossings=member.crossings,
                stopped_by=label,
            )

        scr = self._scratch
        scr.ensure(n_live, min(DEFAULT_BATCH_SIZE, event_cap), update.needs_rng)

        # All running replicates share one global event counter (eligible
        # algorithms update on every tick), so the periodic exact
        # recompute hits the same per-replicate update counts the scalar
        # loop would.
        events_done = 0
        next_recompute = DEFAULT_RECOMPUTE_EVERY
        last_t = np.zeros(n_live)
        while live and events_done < event_cap:
            A = len(live)
            k = min(DEFAULT_BATCH_SIZE, event_cap - events_done)
            draw_t = scr.draw_t
            draw_fu = scr.draw_fu
            draw_fv = scr.draw_fv
            for i, clock in enumerate(clocks):
                times, edge_ids = clock.next_batch(k)
                draw_t[i, :k] = times
                # Resolve every tick's endpoints into flat positions in
                # ``X.reshape(-1)`` up front (row offset baked in), so
                # the hot loop does no endpoint lookups at all.
                off = i * n
                np.add(end_u.take(edge_ids), off, out=draw_fu[i, :k])
                np.add(end_v.take(edge_ids), off, out=draw_fv[i, :k])
            times_v = scr.times_b[:k, :A]
            fu_v = scr.fu_b[:k, :A]
            fv_v = scr.fv_b[:k, :A]
            _transpose_into(times_v, draw_t[:A, :k])
            _transpose_into(fu_v, draw_fu[:A, :k])
            _transpose_into(fv_v, draw_fv[:A, :k])
            if update.needs_rng:
                update.fill(rngs, k, scr.draw_aux)
                aux_v = scr.aux_b[:k, :A]
                _transpose_into(aux_v, scr.draw_aux[:A, :k])
            else:
                aux_v = None
            xu, xv, nu, nv, tmp, tmp2, s1, s2, mean, var = (b[:A] for b in scr.f64_bufs)
            b1, b2, b3, b4 = (b[:A] for b in scr.bool_bufs[:4])
            j = 0
            while j < k:
                t = times_v[j]
                fu = fu_v[j]
                fv = fv_v[j]
                flat.take(fu, out=xu)
                flat.take(fv, out=xv)
                new_u, new_v = update.apply(
                    xu,
                    xv,
                    None if aux_v is None else aux_v[j],
                    nu,
                    nv,
                    tmp,
                    tmp2,
                )
                # Exact association order of the scalar loop's deltas:
                # ((nu^2 + nv^2) - xu^2) - xv^2 and ((nu+nv) - xu) - xv.
                if new_u is new_v:
                    np.multiply(new_u, new_u, out=s1)
                    np.add(s1, s1, out=s1)
                else:
                    np.multiply(new_u, new_u, out=s1)
                    np.multiply(new_v, new_v, out=s2)
                    np.add(s1, s2, out=s1)
                np.multiply(xu, xu, out=s2)
                np.subtract(s1, s2, out=s1)
                np.multiply(xv, xv, out=s2)
                np.subtract(s1, s2, out=s1)
                square_sum += s1
                np.add(new_u, new_v, out=s2)
                np.subtract(s2, xu, out=s2)
                np.subtract(s2, xv, out=s2)
                total += s2
                flat[fu] = new_u
                flat[fv] = new_v
                n_updates = events_done + j + 1
                if n_updates >= next_recompute:
                    # Same per-row reductions the scalar refresh uses
                    # (row.sum() / row @ row on a contiguous vector), on
                    # the same global update boundary.
                    for i in range(A):
                        row = X[i]
                        total[i] = row.sum()
                        square_sum[i] = row @ row
                    next_recompute = n_updates + DEFAULT_RECOMPUTE_EVERY
                np.multiply(total, inv_n, out=mean)
                np.multiply(square_sum, inv_n, out=var)
                np.multiply(mean, mean, out=mean)
                np.subtract(var, mean, out=var)
                np.maximum(var, 0.0, out=var)  # undershoot clamp (NaN passes)
                for ki in range(n_thresholds):
                    np.greater(var, thr_abs[ki], out=b1)
                    np.copyto(last_above[ki], t, where=b1)
                    if below_active[ki]:
                        # The scalar loop's elif: record the first
                        # below-tick only while unset (NaN variance
                        # counts as below); once every row has crossed,
                        # this branch retires for the threshold.
                        unset = below_unset[ki]
                        np.logical_not(b1, out=b2)
                        np.logical_and(b2, unset, out=b2)
                        np.copyto(first_below[ki], t, where=b2)
                        np.logical_and(unset, b1, out=unset)
                        # Retirement is an optimization, not semantics:
                        # polling every 256 updates just delays dropping
                        # to the cheap above-only path.
                        if not (n_updates & 255):
                            below_active[ki] = bool(unset.any())
                if check_stop:
                    # Fused pre-check: one union mask, one .any() per
                    # step.  ``~(v <= d)`` is the scalar divergence test
                    # ``v > d or v != v`` in a single comparison (NaN
                    # fails ``<=``).  Priority labels are resolved in
                    # the rare branch, in the scalar order: target
                    # first, then divergence, then the time budget.
                    stop = None
                    if target_abs is not None:
                        np.less_equal(var, target_abs, out=b3)
                        stop = b3
                    if divergence_abs is not None:
                        buf = b3 if stop is None else b4
                        np.less_equal(var, divergence_abs, out=buf)
                        np.logical_not(buf, out=buf)
                        stop = (
                            buf
                            if stop is None
                            else np.logical_or(stop, buf, out=stop)
                        )
                    if max_time is not None:
                        buf = b3 if stop is None else b4
                        np.greater_equal(t, max_time, out=buf)
                        stop = (
                            buf
                            if stop is None
                            else np.logical_or(stop, buf, out=stop)
                        )
                    if stop.any():
                        hit = (var <= target_abs if target_abs is not None else None)
                        diverged = (
                            ~(var <= divergence_abs)
                            if divergence_abs is not None
                            else None
                        )
                        for i in np.flatnonzero(stop):
                            if hit is not None and hit[i]:
                                label = "target_ratio"
                            elif diverged is not None and diverged[i]:
                                label = "diverged"
                            else:
                                label = "max_time"
                            finalize(i, t[i], n_updates, label)
                        keep = ~stop
                        kept = np.flatnonzero(keep)
                        live = [live[i] for i in kept]
                        if not live:
                            break
                        clocks = [clocks[i] for i in kept]
                        rngs = [rngs[i] for i in kept]
                        A = kept.size
                        X = X[keep]
                        flat = X.reshape(-1)
                        total = total[keep]
                        square_sum = square_sum[keep]
                        thr_abs = np.ascontiguousarray(thr_abs[:, keep])
                        first_below = np.ascontiguousarray(first_below[:, keep])
                        below_unset = np.ascontiguousarray(below_unset[:, keep])
                        last_above = np.ascontiguousarray(last_above[:, keep])
                        below_active = [
                            bool(below_unset[ki].any())
                            for ki in range(n_thresholds)
                        ]
                        if target_abs is not None:
                            target_abs = target_abs[keep]
                        if divergence_abs is not None:
                            divergence_abs = divergence_abs[keep]
                        # Repack the rest of the batch into the leading
                        # columns (the fancy-indexed copies materialize
                        # before landing back in the shared buffers) and
                        # re-bake the flat indices' row offsets for the
                        # new, denser row numbering.
                        shift = (np.arange(A, dtype=np.int64) - kept) * n
                        packed_t = times_v[:, kept]
                        packed_fu = fu_v[:, kept] + shift
                        packed_fv = fv_v[:, kept] + shift
                        times_v = scr.times_b[:k, :A]
                        fu_v = scr.fu_b[:k, :A]
                        fv_v = scr.fv_b[:k, :A]
                        times_v[:] = packed_t
                        fu_v[:] = packed_fu
                        fv_v[:] = packed_fv
                        if aux_v is not None:
                            packed_a = aux_v[:, kept]
                            aux_v = scr.aux_b[:k, :A]
                            aux_v[:] = packed_a
                        (xu, xv, nu, nv, tmp, tmp2, s1, s2, mean, var) = (
                            b[:A] for b in scr.f64_bufs
                        )
                        b1, b2, b3, b4 = (b[:A] for b in scr.bool_bufs[:4])
                j += 1
            events_done += k
            if live:
                # Copy, not view: the shared batch buffer is overwritten
                # by the next batch, and survivors report this time.
                last_t = times_v[k - 1].copy()

        # Event budget exhausted: finalize the survivors at their last
        # event's time, exactly as the scalar loop reports them.
        for i in range(len(live)):
            finalize(i, last_t[i], events_done, "max_events")
        return results  # type: ignore[return-value]

    def _run_group_general(
        self, specs: "Sequence[ReplicateSpec]", update: Any
    ) -> "list[RunResult]":
        """The generalized lockstep loop: masked updates, wrapped clocks.

        Differences from the dense loop, each forced by a scalar-loop
        semantic the dense loop's shortcuts assume away:

        * **Per-row update counts.**  Algorithm A updates on *some*
          ticks, so ``n_updates`` (and the exact-recompute boundary it
          drives) is per replicate, not the shared event counter.
        * **Per-row variance cache.**  The scalar loop only recomputes
          the variance on an update; no-op ticks compare thresholds and
          stop rules against the *stale* value — including the initial
          ``np.var`` result before the first update, which the
          incremental formula does not reproduce to the last ulp.
        * **Masked statistics.**  No-op rows must leave ``T``/``S``
          untouched (adding an "exactly 0.0" delta is not a no-op in
          floating point) and write their own values back unchanged, so
          every masked accumulation goes through ufunc ``where=``.
        * **Buffered tick streams.**  Wrapped clocks deliver fewer ticks
          than requested, so replicates drift apart in buffered ticks;
          ``_TickStream`` replays the scalar request sequence per row and
          the loop advances by the widest sub-batch every live row can
          cover, finalizing rows whose clock is exhausted.

        The non-convex swap itself runs as scalar Python-float
        arithmetic on its (rare) rows — one swap per epoch per replicate
        — reproducing the oracle's expression order exactly, including
        the ``oracle_means`` side-mean reads and the fixed ``(a, b)``
        write orientation.
        """
        graph = specs[0].graph
        run_kwargs = dict(specs[0].run_kwargs)
        (max_time, max_events, target_ratio, thresholds, divergence_ratio) = (
            _parse_run_kwargs(run_kwargs)
        )
        if graph.n_edges == 0:
            raise SimulationError("cannot simulate on a graph with no edges")
        event_cap = max_events if max_events is not None else DEFAULT_MAX_EVENTS
        n = graph.n_vertices
        inv_n = 1.0 / n

        masked = bool(getattr(update, "masked", False))
        if masked:
            # The scalar path validates this in Algorithm A's setup();
            # surface the same mistake with the same error here.
            rule = update.rule
            if rule.graph is not graph and rule.graph != graph:
                raise AlgorithmError(
                    "Algorithm A was configured for a different graph than "
                    "the one it is being run on"
                )
            edge_class = rule.edge_class
            (swap,) = rule.swaps  # Algorithm A declares exactly one
            epoch_length = swap.epoch_length
            gain = swap.gain
            oracle_means = rule.oracle_sides is not None
            a_idx = swap.a
            b_idx = swap.b
            u_is_a = graph.edge_endpoints(swap.edge)[0] == a_idx
            if oracle_means:
                vertices_1, vertices_2 = rule.oracle_sides

        results: "list[RunResult | None]" = [None] * len(specs)
        members = self._setup_members(specs, graph, thresholds, results)
        if not members:
            return results  # type: ignore[return-value]

        live = list(members)
        n_live = len(live)
        X = np.stack([member.values for member in live])  # (A, n) C-order
        flat = X.reshape(-1)  # shared view; rebuilt after compaction
        total = np.array([member.sum_0 for member in live])
        square_sum = np.array([member.square_sum_0 for member in live])
        variance_0 = np.array([member.variance_0 for member in live])
        # The scalar loop's persisted ``variance``: refreshed only on
        # update ticks, read (stale) by every tick's threshold and stop
        # checks.  Starts at the exact np.var result.
        var_arr = variance_0.copy()
        tracked_thresholds = sorted(live[0].crossings, reverse=True)
        n_thresholds = len(tracked_thresholds)
        thr_abs = np.outer(np.asarray(tracked_thresholds), variance_0)
        first_below = np.full((n_thresholds, n_live), np.nan)
        below_unset = np.ones((n_thresholds, n_live), dtype=bool)
        below_active = [True] * n_thresholds
        last_above = np.zeros((n_thresholds, n_live))
        target_abs = None if target_ratio is None else target_ratio * variance_0
        divergence_abs = (
            None if divergence_ratio is None else divergence_ratio * variance_0
        )
        check_stop = (
            target_abs is not None
            or divergence_abs is not None
            or max_time is not None
        )
        streams = [_TickStream(member.clock, event_cap) for member in live]
        rngs = [member.rng for member in live]
        n_upd = np.zeros(n_live, dtype=np.int64)
        next_recomp = np.full(n_live, DEFAULT_RECOMPUTE_EVERY, dtype=np.int64)
        prev_des = np.zeros(n_live, dtype=np.int64)  # designated-tick counts
        last_t = np.zeros(n_live)

        end_u = np.ascontiguousarray(graph.edges[:, 0]).astype(np.int64)
        end_v = np.ascontiguousarray(graph.edges[:, 1]).astype(np.int64)

        def finalize(i: int, duration: float, n_events: int, label: str) -> None:
            """Emit row ``i``'s RunResult (reads the *current* arrays)."""
            member = live[i]
            final = X[i].copy()
            tracked = sorted(member.crossings.values(), key=lambda c: -c.threshold)
            for ki, record in enumerate(tracked):
                below_at = first_below[ki, i]
                record.first_below = (None if np.isnan(below_at) else float(below_at))
                record.last_above = float(last_above[ki, i])
            results[member.position] = RunResult(
                values=final,
                duration=float(duration),
                n_events=int(n_events),
                n_updates=int(n_upd[i]),
                variance_initial=member.variance_0,
                variance_final=float(np.var(final)),
                sum_initial=member.sum_0,
                sum_final=float(final.sum()),
                crossings=member.crossings,
                stopped_by=label,
            )

        scr = self._scratch
        k_cap = min(DEFAULT_BATCH_SIZE, event_cap)
        scr.ensure(n_live, k_cap, update.needs_rng, needs_ops=masked)
        e_row = np.empty(k_cap, dtype=np.int64)
        des_row = np.empty(k_cap, dtype=bool)
        cum_row = np.empty(k_cap, dtype=np.int64)

        events_done = 0
        while live and events_done < event_cap:
            # --- staging: widest sub-batch every live row can cover ---
            k_want = min(DEFAULT_BATCH_SIZE, event_cap - events_done)
            avail = [stream.prefetch(k_want) for stream in streams]
            if min(avail) == 0:
                # Some clock delivered nothing and never will again: the
                # scalar loop's ``clock_exhausted`` exit, at that row's
                # last processed event.
                for i in range(len(live)):
                    if avail[i] == 0:
                        finalize(i, last_t[i], events_done, "clock_exhausted")
                kept = np.asarray(
                    [i for i, a in enumerate(avail) if a > 0], dtype=np.int64
                )
                if kept.size == 0:
                    return results  # type: ignore[return-value]
                live = [live[i] for i in kept]
                streams = [streams[i] for i in kept]
                rngs = [rngs[i] for i in kept]
                avail = [avail[i] for i in kept]
                keep = np.zeros(X.shape[0], dtype=bool)
                keep[kept] = True
                X = X[keep]
                flat = X.reshape(-1)
                total = total[keep]
                square_sum = square_sum[keep]
                var_arr = var_arr[keep]
                n_upd = n_upd[keep]
                next_recomp = next_recomp[keep]
                prev_des = prev_des[keep]
                last_t = last_t[keep]
                thr_abs = np.ascontiguousarray(thr_abs[:, keep])
                first_below = np.ascontiguousarray(first_below[:, keep])
                below_unset = np.ascontiguousarray(below_unset[:, keep])
                last_above = np.ascontiguousarray(last_above[:, keep])
                below_active = [
                    bool(below_unset[ki].any()) for ki in range(n_thresholds)
                ]
                if target_abs is not None:
                    target_abs = target_abs[keep]
                if divergence_abs is not None:
                    divergence_abs = divergence_abs[keep]
            A = len(live)
            k = min(avail)
            draw_t = scr.draw_t
            draw_fu = scr.draw_fu
            draw_fv = scr.draw_fv
            for i, stream in enumerate(streams):
                stream.take_into(k, draw_t[i, :k], e_row[:k])
                off = i * n
                np.add(end_u.take(e_row[:k]), off, out=draw_fu[i, :k])
                np.add(end_v.take(e_row[:k]), off, out=draw_fv[i, :k])
                if masked:
                    # Per-tick op codes: the edge class, with designated
                    # ticks resolved against this row's running epoch
                    # phase (1-based count of designated ticks mod L).
                    op_row = scr.draw_op[i, :k]
                    edge_class.take(e_row[:k], out=op_row)
                    np.equal(op_row, 2, out=des_row[:k])
                    des_k = des_row[:k]
                    if des_k.any():
                        np.cumsum(des_k, out=cum_row[:k])
                        cum_k = cum_row[:k]
                        cum_k += prev_des[i]
                        prev_des[i] = cum_k[k - 1]
                        np.mod(cum_k, epoch_length, out=cum_k)
                        # Silence designated ticks off the epoch boundary.
                        op_row[des_k & (cum_k != 0)] = 0
            times_v = scr.times_b[:k, :A]
            fu_v = scr.fu_b[:k, :A]
            fv_v = scr.fv_b[:k, :A]
            _transpose_into(times_v, draw_t[:A, :k])
            _transpose_into(fu_v, draw_fu[:A, :k])
            _transpose_into(fv_v, draw_fv[:A, :k])
            if masked:
                op_v = scr.op_b[:k, :A]
                _transpose_into(op_v, scr.draw_op[:A, :k])
            else:
                op_v = None
            if update.needs_rng:
                update.fill(rngs, k, scr.draw_aux)
                aux_v = scr.aux_b[:k, :A]
                _transpose_into(aux_v, scr.draw_aux[:A, :k])
            else:
                aux_v = None
            xu, xv, nu, nv, tmp, tmp2, s1, s2, mean, var = (b[:A] for b in scr.f64_bufs)
            b1, b2, b3, b4, b5 = (b[:A] for b in scr.bool_bufs)
            j = 0
            while j < k:
                t = times_v[j]
                fu = fu_v[j]
                fv = fv_v[j]
                flat.take(fu, out=xu)
                flat.take(fv, out=xv)
                step_no = events_done + j + 1
                if masked:
                    op = op_v[j]
                    # Vanilla rows: both endpoints move to their mean.
                    np.add(xu, xv, out=nu)
                    np.multiply(nu, 0.5, out=nu)
                    np.copyto(nv, nu)
                    # No-op rows write their own values back (bitwise
                    # no-op) so one unmasked scatter serves all rows.
                    np.equal(op, 0, out=b2)
                    np.copyto(nu, xu, where=b2)
                    np.copyto(nv, xv, where=b2)
                    np.equal(op, 2, out=b2)
                    if b2.any():
                        for i in np.flatnonzero(b2):
                            # The non-convex swap, in the scalar oracle's
                            # exact Python-float expression order.
                            row = X[i]
                            if oracle_means:
                                delta = float(
                                    row[vertices_2].mean() - row[vertices_1].mean()
                                )
                            else:
                                delta = float(row[b_idx] - row[a_idx])
                            transfer = gain * delta
                            new_a = float(row[a_idx]) + transfer
                            new_b = float(row[b_idx]) - transfer
                            if u_is_a:
                                nu[i] = new_a
                                nv[i] = new_b
                            else:
                                nu[i] = new_b
                                nv[i] = new_a
                    np.not_equal(op, 0, out=b1)
                    upd = b1
                    new_u = nu
                    new_v = nv
                else:
                    upd = None
                    new_u, new_v = update.apply(
                        xu,
                        xv,
                        None if aux_v is None else aux_v[j],
                        nu,
                        nv,
                        tmp,
                        tmp2,
                    )
                # Exact association order of the scalar loop's deltas:
                # ((nu^2 + nv^2) - xu^2) - xv^2 and ((nu+nv) - xu) - xv.
                if new_u is new_v:
                    np.multiply(new_u, new_u, out=s1)
                    np.add(s1, s1, out=s1)
                else:
                    np.multiply(new_u, new_u, out=s1)
                    np.multiply(new_v, new_v, out=s2)
                    np.add(s1, s2, out=s1)
                np.multiply(xu, xu, out=s2)
                np.subtract(s1, s2, out=s1)
                np.multiply(xv, xv, out=s2)
                np.subtract(s1, s2, out=s1)
                np.add(new_u, new_v, out=tmp)
                np.subtract(tmp, xu, out=tmp)
                np.subtract(tmp, xv, out=tmp)
                if upd is None:
                    square_sum += s1
                    total += tmp
                    np.add(n_upd, 1, out=n_upd)
                else:
                    # ufunc where=, not multiply-by-mask: a no-op row's
                    # "zero" delta is not exactly 0.0 after cancellation,
                    # and 0.0 * inf/nan would poison the sums.
                    np.add(square_sum, s1, out=square_sum, where=upd)
                    np.add(total, tmp, out=total, where=upd)
                    np.add(n_upd, upd, out=n_upd)
                flat[fu] = new_u
                flat[fv] = new_v
                # Per-row exact recompute on the scalar loop's per-row
                # update boundaries (rows cross at different times).
                np.greater_equal(n_upd, next_recomp, out=b3)
                if b3.any():
                    for i in np.flatnonzero(b3):
                        row = X[i]
                        total[i] = row.sum()
                        square_sum[i] = row @ row
                        next_recomp[i] = n_upd[i] + DEFAULT_RECOMPUTE_EVERY
                np.multiply(total, inv_n, out=mean)
                np.multiply(square_sum, inv_n, out=var)
                np.multiply(mean, mean, out=mean)
                np.subtract(var, mean, out=var)
                np.maximum(var, 0.0, out=var)  # undershoot clamp (NaN passes)
                if upd is None:
                    np.copyto(var_arr, var)
                else:
                    np.copyto(var_arr, var, where=upd)
                for ki in range(n_thresholds):
                    np.greater(var_arr, thr_abs[ki], out=b3)
                    np.copyto(last_above[ki], t, where=b3)
                    if below_active[ki]:
                        unset = below_unset[ki]
                        np.logical_not(b3, out=b4)
                        np.logical_and(b4, unset, out=b4)
                        np.copyto(first_below[ki], t, where=b4)
                        np.logical_and(unset, b3, out=unset)
                        if not (step_no & 255):
                            below_active[ki] = bool(unset.any())
                if check_stop:
                    stop = None
                    if target_abs is not None:
                        np.less_equal(var_arr, target_abs, out=b3)
                        stop = b3
                    if divergence_abs is not None:
                        buf = b3 if stop is None else b4
                        np.less_equal(var_arr, divergence_abs, out=buf)
                        np.logical_not(buf, out=buf)
                        stop = (
                            buf
                            if stop is None
                            else np.logical_or(stop, buf, out=stop)
                        )
                    if max_time is not None:
                        buf = b3 if stop is None else b4
                        np.greater_equal(t, max_time, out=buf)
                        stop = (
                            buf
                            if stop is None
                            else np.logical_or(stop, buf, out=stop)
                        )
                    if stop.any():
                        hit = (
                            var_arr <= target_abs
                            if target_abs is not None
                            else None
                        )
                        diverged = (
                            ~(var_arr <= divergence_abs)
                            if divergence_abs is not None
                            else None
                        )
                        for i in np.flatnonzero(stop):
                            if hit is not None and hit[i]:
                                label = "target_ratio"
                            elif diverged is not None and diverged[i]:
                                label = "diverged"
                            else:
                                label = "max_time"
                            finalize(i, t[i], step_no, label)
                        keep = ~stop
                        kept = np.flatnonzero(keep)
                        live = [live[i] for i in kept]
                        if not live:
                            break
                        streams = [streams[i] for i in kept]
                        rngs = [rngs[i] for i in kept]
                        A = kept.size
                        X = X[keep]
                        flat = X.reshape(-1)
                        total = total[keep]
                        square_sum = square_sum[keep]
                        var_arr = var_arr[keep]
                        n_upd = n_upd[keep]
                        next_recomp = next_recomp[keep]
                        prev_des = prev_des[keep]
                        thr_abs = np.ascontiguousarray(thr_abs[:, keep])
                        first_below = np.ascontiguousarray(first_below[:, keep])
                        below_unset = np.ascontiguousarray(below_unset[:, keep])
                        last_above = np.ascontiguousarray(last_above[:, keep])
                        below_active = [
                            bool(below_unset[ki].any())
                            for ki in range(n_thresholds)
                        ]
                        if target_abs is not None:
                            target_abs = target_abs[keep]
                        if divergence_abs is not None:
                            divergence_abs = divergence_abs[keep]
                        # Repack the rest of the batch into the leading
                        # columns and re-bake the flat indices' row
                        # offsets for the denser row numbering.
                        shift = (np.arange(A, dtype=np.int64) - kept) * n
                        packed_t = times_v[:, kept]
                        packed_fu = fu_v[:, kept] + shift
                        packed_fv = fv_v[:, kept] + shift
                        times_v = scr.times_b[:k, :A]
                        fu_v = scr.fu_b[:k, :A]
                        fv_v = scr.fv_b[:k, :A]
                        times_v[:] = packed_t
                        fu_v[:] = packed_fu
                        fv_v[:] = packed_fv
                        if op_v is not None:
                            packed_op = op_v[:, kept]
                            op_v = scr.op_b[:k, :A]
                            op_v[:] = packed_op
                        if aux_v is not None:
                            packed_a = aux_v[:, kept]
                            aux_v = scr.aux_b[:k, :A]
                            aux_v[:] = packed_a
                        (xu, xv, nu, nv, tmp, tmp2, s1, s2, mean, var) = (
                            b[:A] for b in scr.f64_bufs
                        )
                        b1, b2, b3, b4, b5 = (b[:A] for b in scr.bool_bufs)
                j += 1
            events_done += k
            if live:
                # Copy, not view: the shared batch buffer is overwritten
                # by the next batch, and survivors report this time.
                last_t = times_v[k - 1].copy()

        # Event budget exhausted: finalize the survivors at their last
        # event's time, exactly as the scalar loop reports them.
        for i in range(len(live)):
            finalize(i, last_t[i], events_done, "max_events")
        return results  # type: ignore[return-value]

    def _setup_members(
        self,
        specs: "Sequence[ReplicateSpec]",
        graph: Any,
        thresholds: "Sequence[float]",
        results: "list[RunResult | None]",
    ) -> "list[_Member]":
        """Per-replicate setup, mirroring the scalar path draw for draw.

        Replicates whose workload is already averaged short-circuit to
        their zero-variance result here (never entering lockstep),
        exactly as the scalar loop returns before its first event.
        """
        members: "list[_Member]" = []
        for position, spec in enumerate(specs):
            clock_seq, workload_seq, algorithm_seq = replicate_substreams(spec)
            clock_rng = np.random.default_rng(clock_seq)
            if callable(spec.initial_values):
                workload_rng = np.random.default_rng(workload_seq)
                raw_values = spec.initial_values(workload_rng)
            else:
                raw_values = spec.initial_values
            values = np.asarray(raw_values, dtype=np.float64)
            if values.shape != (graph.n_vertices,):
                raise SimulationError(
                    f"initial_values must have shape ({graph.n_vertices},), "
                    f"got {values.shape}"
                )
            values = values.copy()
            member = _Member(position)
            member.values = values
            member.variance_0 = float(np.var(values))
            member.sum_0 = float(values.sum())
            member.crossings = {
                float(thr): Crossing(threshold=float(thr)) for thr in thresholds
            }
            if member.variance_0 == 0.0:
                results[position] = RunResult(
                    values=values,
                    duration=0.0,
                    n_events=0,
                    n_updates=0,
                    variance_initial=0.0,
                    variance_final=0.0,
                    sum_initial=member.sum_0,
                    sum_final=member.sum_0,
                    crossings=member.crossings,
                    stopped_by="target_ratio",
                )
                continue
            member.square_sum_0 = float(values @ values)
            if spec.clock_factory is not None:
                member.clock = spec.clock_factory(clock_rng)
            else:
                member.clock = PoissonEdgeClocks(graph.n_edges, seed=clock_rng)
            clock_edges = getattr(member.clock, "n_edges", None)
            if clock_edges != graph.n_edges:
                raise SimulationError(
                    f"clock models {clock_edges} edges but the "
                    f"graph has {graph.n_edges}"
                )
            member.rng = np.random.default_rng(algorithm_seq)
            members.append(member)
        return members


def _parse_run_kwargs(
    run_kwargs: dict,
) -> "tuple[float | None, int | None, float | None, Sequence[float], float | None]":
    """Read run kwargs with the scalar loop's defaults and validation."""
    max_time = run_kwargs.get("max_time")
    max_events = run_kwargs.get("max_events")
    target_ratio = run_kwargs.get("target_ratio")
    thresholds = run_kwargs.get("thresholds", (math.e**-2,))
    divergence_ratio = run_kwargs.get("divergence_ratio", 1e9)
    validate_run_budget(
        max_time, max_events, target_ratio, thresholds, divergence_ratio
    )
    return max_time, max_events, target_ratio, thresholds, divergence_ratio
