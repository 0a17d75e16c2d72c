"""Pluggable execution backends for Monte-Carlo replication.

The paper's quantities are quantiles over independent Poisson-clock
replicates, so replicate fan-out is embarrassingly parallel: no replicate
reads another's state, and every random draw is derived from a
per-replicate :class:`numpy.random.SeedSequence`.  This module turns that
observation into a seam the rest of the engine builds on:

* :class:`ReplicateSpec` — one replicate's complete, picklable work order
  (graph, algorithm factory, workload, derived seed sequence, run
  kwargs);
* :func:`execute_replicate` — the single function that turns a spec into
  a :class:`~repro.engine.results.RunResult`, used identically by every
  backend;
* :class:`SerialBackend` — in-process execution, the default;
* :class:`ProcessPoolBackend` — fan-out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.

**Reproducibility guarantee.**  All randomness a replicate consumes is
derived inside :func:`execute_replicate` from the spec's seed sequence
(split into clock / workload / algorithm substreams), never from shared
mutable state.  Results are therefore **bit-identical across backends and
worker counts** for the same root seed: ``ProcessPoolBackend`` reorders
only wall-clock execution, and :meth:`ExecutionBackend.execute` returns
results in submission order regardless of completion order.

**Picklability.**  Process execution ships specs to workers with
:mod:`pickle`.  Graphs, partitions, clock processes and the library's
algorithms all pickle; the usual culprit is a lambda or closure used as
``algorithm_factory`` or ``clock_factory``.  Use module-level callables,
:func:`functools.partial`, or :class:`AlgorithmFactory` (and the clock
factories in :mod:`repro.clocks`) instead.  ``SerialBackend`` imposes no
such restriction.

**Shared-state shipping.**  A sweep batch repeats the same immutable
per-configuration objects (graph, factories, workload) across many
replicates; pickling them into every :class:`ReplicateSpec` makes IPC
cost grow as O(replicates x graph size).  :meth:`ExecutionBackend
.execute_shared` takes *slim* specs whose heavy fields are
:class:`SharedStateRef` placeholders plus one mapping of the referenced
payloads; :class:`ProcessPoolBackend` ships that mapping **once per
worker** through the executor ``initializer`` and resolves the
placeholders worker-side, while the default implementation (serial and
any custom backend) resolves them in-process against the very same
objects — so results stay bit-identical whether state is shipped,
inlined, or never leaves the process.

Backend selection: pass an :class:`ExecutionBackend`, a backend name
(``"serial"`` or ``"process"``), or just ``n_workers`` to
:func:`resolve_backend`; with neither, the ``REPRO_WORKERS`` environment
variable (the CLI's ``--workers`` flag sets it) picks the worker count,
defaulting to serial execution.
"""

from __future__ import annotations

import abc
import contextlib
import hashlib
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.algorithms.base import GossipAlgorithm
from repro.engine.kernels import (
    AUTO_MIN_BATCH,
    ScalarKernel,
    execute_specs as _kernel_execute_specs,
    new_kernel_stats,
)
from repro.engine.results import RunResult
from repro.errors import SimulationError
from repro.graphs.graph import Graph

#: Environment variable consulted when no backend/worker count is given
#: (the CLI's ``--workers`` flag sets it for a whole experiment run).
WORKERS_ENV_VAR = "REPRO_WORKERS"

_SCALAR_KERNEL = ScalarKernel()


@dataclass(frozen=True)
class ReplicateSpec:
    """One replicate's complete work order (picklable).

    Attributes
    ----------
    index:
        The replicate's position within its configuration's sequence
        (metadata — seeds live in ``seed_sequence``).  Not unique across
        a sweep batch; backends return results in submission order, not
        by this field.
    graph:
        The graph to simulate on.
    algorithm_factory:
        Zero-argument callable producing the replicate's algorithm.
    initial_values:
        Fixed vector, or callable ``rng -> vector`` drawing the workload
        from the replicate's workload stream.
    seed_sequence:
        The replicate's private :class:`numpy.random.SeedSequence`; split
        into clock / workload / algorithm substreams at execution time.
    clock_factory:
        Optional callable ``rng -> clock``; ``None`` means the standard
        rate-1 Poisson model on the graph's edges.
    run_kwargs:
        Keyword arguments forwarded to :meth:`Simulator.run`.
    kernel:
        Execution-kernel request (``"auto"``, ``"scalar"`` or
        ``"vectorized"`` — see :mod:`repro.engine.kernels`).  A
        scheduling hint, never part of the result: all kernels are
        bit-identical, so backends are free to group eligible specs into
        lockstep batches.
    """

    index: int
    graph: Graph
    algorithm_factory: "Callable[[], GossipAlgorithm]"
    initial_values: "Sequence[float] | Callable[[np.random.Generator], Sequence[float]]"
    seed_sequence: np.random.SeedSequence
    clock_factory: "Callable[[np.random.Generator], object] | None" = None
    run_kwargs: "Mapping[str, Any]" = field(default_factory=dict)
    kernel: str = "auto"


@dataclass(frozen=True)
class SharedStateRef:
    """Placeholder for a value shipped separately from the spec.

    A slim :class:`ReplicateSpec` carries refs in its heavy fields
    (graph, factories, workload); :func:`resolve_replicate_spec` swaps
    them for ``lookup[key][item]`` (or ``lookup[key]`` when ``item`` is
    ``None``) before execution.  Refs are tiny and always picklable, so
    a sweep's per-replicate IPC payload shrinks to (seed, run kwargs).
    """

    key: str
    item: "str | None" = None


#: The ReplicateSpec fields a SharedStateRef may stand in for.
_SHARED_FIELDS = ("graph", "algorithm_factory", "initial_values", "clock_factory")


def spec_has_refs(spec: ReplicateSpec) -> bool:
    """True when any heavy field of ``spec`` is a :class:`SharedStateRef`."""
    return any(
        isinstance(getattr(spec, name), SharedStateRef)
        for name in _SHARED_FIELDS
    )


def resolve_replicate_spec(
    spec: ReplicateSpec, lookup: "Mapping[str, Any]"
) -> ReplicateSpec:
    """Swap a slim spec's :class:`SharedStateRef` fields for their payloads.

    Specs without refs are returned unchanged (same object), so resolving
    is free on the inline path.  Resolution against the caller's own
    mapping returns the *same* payload objects a non-shared spec would
    have carried — which is what makes shared and inline execution
    bit-identical by construction.
    """
    updates = {}
    for name in _SHARED_FIELDS:
        value = getattr(spec, name)
        if not isinstance(value, SharedStateRef):
            continue
        try:
            payload = lookup[value.key]
        except KeyError:
            raise SimulationError(
                f"replicate spec references shared state {value.key!r} "
                "which is not in the installed mapping; pass the same "
                "shared_state the specs were built against"
            ) from None
        if value.item is not None:
            try:
                payload = payload[value.item]
            except (KeyError, TypeError, IndexError):
                raise SimulationError(
                    f"shared state {value.key!r} has no item {value.item!r}"
                ) from None
        updates[name] = payload
    if not updates:
        return spec
    return replace(spec, **updates)


def execute_replicate(spec: ReplicateSpec) -> RunResult:
    """Run one replicate from its spec through the scalar kernel.

    The per-replicate substream discipline (clock / workload / algorithm
    seed children) and the scalar event loop both live behind
    :class:`~repro.engine.kernels.scalar.ScalarKernel` now; this
    function remains the stable single-replicate entry point and adds
    the shared-state guard.  Kernel-aware batch execution goes through
    :func:`repro.engine.kernels.execute_specs` instead (the backends
    below do) — this path deliberately ignores ``spec.kernel`` so it
    stays a pure scalar oracle.
    """
    if spec_has_refs(spec):
        raise SimulationError(
            "replicate spec still carries SharedStateRef placeholders; "
            "run it through ExecutionBackend.execute_shared (or resolve "
            "it with resolve_replicate_spec) instead of execute()"
        )
    return _SCALAR_KERNEL.execute_one(spec)


def _check_no_refs(specs: "Sequence[ReplicateSpec]") -> None:
    """Shared-state guard for whole batches (same message as above)."""
    for spec in specs:
        if spec_has_refs(spec):
            raise SimulationError(
                "replicate spec still carries SharedStateRef placeholders; "
                "run it through ExecutionBackend.execute_shared (or resolve "
                "it with resolve_replicate_spec) instead of execute()"
            )


def check_no_recorder(specs: "Sequence[ReplicateSpec]") -> None:
    """Reject specs carrying a caller-side recorder.

    A recorder is caller-side mutable state; a worker's appends never
    cross back over the process boundary, so the caller would silently
    get an empty recorder.
    """
    for spec in specs:
        if spec.run_kwargs.get("recorder") is not None:
            raise SimulationError(
                "recorder cannot be used with process execution — "
                "worker-side samples never reach the caller's recorder "
                "object; run with the serial backend (n_workers=1) to "
                "trace replicates"
            )


def check_spec_picklable(spec: ReplicateSpec) -> None:
    """Fail fast with guidance instead of a deep executor traceback."""
    try:
        pickle.dumps(spec)
    except Exception as exc:
        raise SimulationError(
            "replicate spec cannot be pickled for out-of-process "
            f"execution ({exc}); use module-level callables, "
            "functools.partial, or repro.engine.backends.AlgorithmFactory "
            "instead of lambdas/closures, or fall back to the serial "
            "backend"
        ) from exc


def check_batch_picklable(specs: "Sequence[ReplicateSpec]") -> None:
    """Probe picklability once per distinct configuration in a batch.

    Replicates of one configuration share their graph/factory objects,
    but a sweep batch mixes configurations and any one of them can carry
    the unpicklable closure; any spec's ``run_kwargs`` can smuggle one
    in too, so the dedup key covers both.
    """
    seen: "set[tuple[int, ...]]" = set()
    for spec in specs:
        key = (
            id(spec.graph),
            id(spec.algorithm_factory),
            id(spec.initial_values),
            id(spec.clock_factory),
            *sorted(map(id, spec.run_kwargs.values())),
        )
        if key not in seen:
            seen.add(key)
            check_spec_picklable(spec)


def pickle_shared_state(shared_state: "Mapping[str, Any]") -> "tuple[str, bytes]":
    """Pickle a shared-state mapping and return ``(digest, blob)``.

    The content digest is what lets the process pool ship a mapping
    **at most once per worker**: equal-but-distinct mappings hash
    identically, so the pool is not restarted unless the payload
    genuinely changed.
    """
    try:
        blob = pickle.dumps(dict(shared_state), protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise SimulationError(
            "shared state cannot be pickled for out-of-process execution "
            f"({exc}); use module-level callables, functools.partial, "
            "or repro.engine.backends.AlgorithmFactory instead of "
            "lambdas/closures, or fall back to the serial backend"
        ) from exc
    return hashlib.sha256(blob).hexdigest(), blob


class ExecutionBackend(abc.ABC):
    """How a batch of replicate specs gets executed.

    Implementations must return results **in submission order** —
    ``result[i]`` belongs to ``specs[i]`` — and must not inject any
    randomness of their own; both are what makes backends
    interchangeable without touching any estimate.  ``spec.index``
    identifies a replicate *within its configuration* and is **not**
    unique across a batch: the sweep scheduler
    (:mod:`repro.engine.sweeps`) batches windows from many
    configurations into one call, so several specs legitimately share an
    index.  Backends must never reorder or key results by it.
    """

    #: Short machine name (CLI/report label).
    name: str = "abstract"

    @abc.abstractmethod
    def execute(self, specs: "Sequence[ReplicateSpec]") -> "list[RunResult]":
        """Run every spec and return results in submission order."""

    def execute_shared(
        self,
        specs: "Sequence[ReplicateSpec]",
        shared_state: "Mapping[str, Any]",
    ) -> "list[RunResult]":
        """Run slim specs whose :class:`SharedStateRef` fields resolve
        against ``shared_state``.

        The default implementation resolves the refs in-process — to the
        very objects the caller put in the mapping — and delegates to
        :meth:`execute`, so serial execution and any custom backend get
        shared-state support for free with trivially bit-identical
        results.  :class:`ProcessPoolBackend` overrides this to ship the
        mapping once per worker instead of once per replicate.
        """
        return self.execute(
            [resolve_replicate_spec(spec, shared_state) for spec in specs]
        )

    def shutdown(self) -> None:
        """Release any external resources (worker pools).

        No-op by default; backends owning processes override it.
        Callers may invoke it unconditionally — a later ``execute``
        transparently rebuilds whatever was released.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def execute_with_retry(
    backend: ExecutionBackend,
    specs: "Sequence[ReplicateSpec]",
    *,
    shared_state: "Mapping[str, Any] | None" = None,
) -> "list[RunResult]":
    """Execute one batch: the single call every Monte-Carlo and sweep
    batch passes through on its way to a backend.

    Slim specs go through :meth:`ExecutionBackend.execute_shared` with
    ``shared_state``; inline specs through :meth:`ExecutionBackend
    .execute`.  Failures propagate unchanged: nothing is retried.  The
    name is kept because this is the one seam where every batch can be
    observed — ``perfbench`` counts replicate events by wrapping it.
    """
    if shared_state is not None:
        return backend.execute_shared(specs, shared_state)
    return backend.execute(specs)


class SerialBackend(ExecutionBackend):
    """Execute replicates in the current process (kernel-dispatched).

    Batches route through :func:`repro.engine.kernels.execute_specs`, so
    eligible same-configuration replicate blocks advance in numpy
    lockstep while everything else takes the scalar loop — with
    bit-identical results either way.  :attr:`kernel_stats` accumulates
    which path engaged.
    """

    name = "serial"

    def __init__(self) -> None:
        #: Cumulative kernel-engagement counters (see
        #: :func:`repro.engine.kernels.new_kernel_stats`).
        self.kernel_stats = new_kernel_stats()

    def execute(self, specs: "Sequence[ReplicateSpec]") -> "list[RunResult]":
        _check_no_refs(specs)
        return _kernel_execute_specs(specs, stats=self.kernel_stats)


#: Worker-process registry for shared state installed by the executor
#: initializer (:func:`_install_worker_shared_state`).  Empty in the
#: parent process; a worker fills it exactly once, at spawn.
_WORKER_SHARED_STATE: "dict[str, Any]" = {}


def _install_worker_shared_state(blob: bytes) -> None:
    """Executor initializer: unpack the shared-state mapping in a worker.

    Runs once per worker process, so each distinct payload crosses the
    process boundary at most once per worker no matter how many
    replicates reference it.
    """
    _WORKER_SHARED_STATE.clear()
    _WORKER_SHARED_STATE.update(pickle.loads(blob))


def _execute_spec_chunk(
    specs: "list[ReplicateSpec]",
) -> "tuple[list[RunResult], dict[str, int]]":
    """Worker task: kernel-dispatch a same-configuration spec chunk.

    Returns the chunk's results plus its kernel-engagement counters so
    the parent can aggregate telemetry across workers.
    """
    stats = new_kernel_stats()
    return _kernel_execute_specs(specs, stats=stats), stats


def _execute_shared_spec_chunk(
    specs: "list[ReplicateSpec]",
) -> "tuple[list[RunResult], dict[str, int]]":
    """Worker task: resolve a slim chunk against installed state, then run."""
    resolved = [
        resolve_replicate_spec(spec, _WORKER_SHARED_STATE) for spec in specs
    ]
    stats = new_kernel_stats()
    return _kernel_execute_specs(resolved, stats=stats), stats


def _spec_affinity_key(spec: ReplicateSpec) -> tuple:
    """Configuration identity usable on slim *or* resolved specs.

    Shared-state refs are compared by content (every slim spec carries
    its own equal ``SharedStateRef``), heavy inline objects by identity
    (replicates of one configuration share them), run kwargs by content.
    Used only to align dispatch chunks with configuration boundaries —
    chunking can never change a result, only how well batches vectorize.
    """
    parts: "list[object]" = [getattr(spec, "kernel", "auto")]
    for name in _SHARED_FIELDS:
        value = getattr(spec, name)
        if isinstance(value, SharedStateRef):
            parts.append(("ref", value.key, value.item))
        else:
            parts.append(("id", id(value)))
    parts.append(
        tuple(sorted((key, repr(value)) for key, value in spec.run_kwargs.items()))
    )
    return tuple(parts)


def _dispatch_chunks(
    specs: "Sequence[ReplicateSpec]", n_workers: int
) -> "list[list[ReplicateSpec]]":
    """Split a batch into contiguous same-configuration dispatch chunks.

    Chunks are the process pool's task unit *and* the vectorized
    kernel's lockstep group, so the size cap balances two pressures:
    wide enough to vectorize (never below
    :data:`~repro.engine.kernels.AUTO_MIN_BATCH`), small enough that a
    single-configuration batch still spreads over the pool.  Sweep
    batches (many configurations x one replicate window) split on the
    configuration boundaries and keep window-level granularity.
    """
    cap = max(AUTO_MIN_BATCH, -(-len(specs) // (4 * n_workers)))
    chunks: "list[list[ReplicateSpec]]" = []
    current: "list[ReplicateSpec]" = []
    current_key: "tuple | None" = None
    for spec in specs:
        key = _spec_affinity_key(spec)
        if current and (key != current_key or len(current) >= cap):
            chunks.append(current)
            current = []
        current.append(spec)
        current_key = key
    if current:
        chunks.append(current)
    return chunks


class ProcessPoolBackend(ExecutionBackend):
    """Fan replicates out over a process pool.

    Specs are pickled to workers and results reassembled in submission
    order, so output is bit-identical to :class:`SerialBackend` for the
    same root seed (see the module docstring's reproducibility guarantee).

    On the plain :meth:`execute` path each spec carries its own copy of
    the shared state (graph, factories, run kwargs), so IPC cost grows
    as O(replicates x graph size) — noise against multi-second
    replicates, but real at sweep fan-outs.  :meth:`execute_shared`
    removes it: the caller's shared-state mapping is pickled **once**,
    installed in every worker through the executor ``initializer``, and
    per-task payloads shrink to ``(index, seed_sequence, run_kwargs)``
    plus tiny :class:`SharedStateRef` placeholders.  Installing a new
    mapping recreates the pool (the initializer only runs at worker
    spawn); within one sweep the mapping is stable, so that happens once.

    Parameters
    ----------
    n_workers:
        Worker processes; defaults to the machine's CPU count.
    mp_context:
        Optional :mod:`multiprocessing` context (e.g.
        ``multiprocessing.get_context("fork")``) forwarded to the
        executor; ``None`` uses the platform default.
    """

    name = "process"

    def __init__(
        self,
        n_workers: "int | None" = None,
        *,
        mp_context: "object | None" = None,
    ) -> None:
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise SimulationError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = int(n_workers)
        self._mp_context = mp_context
        self._pool: "ProcessPoolExecutor | None" = None
        #: The mapping currently installed in the pool's workers (strong
        #: reference: keeps the identity fast-path in _ensure_shared_pool
        #: valid) and its content digest.  None = pool has no state.
        self._installed_state: "Mapping[str, Any] | None" = None
        self._installed_digest: "str | None" = None
        #: How many times a pool was (re)created with shared state — the
        #: regression suite asserts a whole sweep costs exactly one.
        self.shared_installs = 0
        #: Cumulative kernel-engagement counters aggregated from worker
        #: chunk returns (see :func:`repro.engine.kernels.new_kernel_stats`).
        self.kernel_stats = new_kernel_stats()

    def _merge_kernel_stats(self, stats: "Mapping[str, int]") -> None:
        for key, value in stats.items():
            self.kernel_stats[key] = self.kernel_stats.get(key, 0) + value

    def _map_chunks(
        self, worker: "Callable[[list[ReplicateSpec]], Any]",
        specs: "Sequence[ReplicateSpec]",
    ) -> "list[RunResult]":
        """Fan dispatch chunks over the pool, reassembling in order.

        Chunks align with configuration boundaries
        (:func:`_dispatch_chunks`), so each worker-side kernel dispatch
        sees a same-configuration block it can vectorize; per-chunk
        kernel counters are folded into :attr:`kernel_stats`.
        """
        assert self._pool is not None
        chunks = _dispatch_chunks(specs, self.n_workers)
        try:
            outcomes = list(self._pool.map(worker, chunks))
        except BrokenProcessPool as exc:
            self.shutdown()
            raise SimulationError(
                f"process pool died executing replicates ({exc}); a worker "
                "was killed (OOM?) or crashed during unpickling"
            ) from exc
        results: "list[RunResult]" = []
        for chunk_results, chunk_stats in outcomes:
            results.extend(chunk_results)
            self._merge_kernel_stats(chunk_stats)
        return results

    def execute(self, specs: "Sequence[ReplicateSpec]") -> "list[RunResult]":
        if not specs:
            return []
        if self.n_workers == 1 or len(specs) == 1:
            # A pool of one buys nothing; the in-process path is
            # identical by construction (same kernels, same seeds).
            _check_no_refs(specs)
            return _kernel_execute_specs(specs, stats=self.kernel_stats)
        check_no_recorder(specs)
        check_batch_picklable(specs)
        if self._pool is None:
            # Lazily created and reused across execute() calls: an
            # experiment makes dozens of estimator calls, and paying
            # worker startup (expensive under spawn) per call would
            # erase the fan-out's gain.
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=self._mp_context,  # type: ignore[arg-type]
            )
        return self._map_chunks(_execute_spec_chunk, specs)

    def execute_shared(
        self,
        specs: "Sequence[ReplicateSpec]",
        shared_state: "Mapping[str, Any]",
    ) -> "list[RunResult]":
        if not specs:
            return []
        if self.n_workers == 1 or len(specs) == 1:
            # Same serial short-circuit as execute(): resolution against
            # the caller's mapping yields the caller's own objects.
            resolved = [
                resolve_replicate_spec(spec, shared_state) for spec in specs
            ]
            return _kernel_execute_specs(resolved, stats=self.kernel_stats)
        check_no_recorder(specs)
        check_batch_picklable(specs)
        self._ensure_shared_pool(shared_state)
        return self._map_chunks(_execute_shared_spec_chunk, specs)

    def _ensure_shared_pool(self, shared_state: "Mapping[str, Any]") -> None:
        """Make the worker pool carry exactly ``shared_state``.

        Identity fast-path first (a sweep passes the same mapping object
        every round), then a content digest, so an equal-but-distinct
        mapping never forces a pool restart.  Only a genuinely new
        mapping pays the pickle + worker-respawn cost — once per sweep.
        """
        if self._pool is not None and shared_state is self._installed_state:
            return
        digest, blob = pickle_shared_state(shared_state)
        if self._pool is not None and digest == self._installed_digest:
            self._installed_state = shared_state
            return
        self.shutdown()
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=self._mp_context,  # type: ignore[arg-type]
            initializer=_install_worker_shared_state,
            initargs=(blob,),
        )
        self._installed_state = shared_state
        self._installed_digest = digest
        self.shared_installs += 1

    def shutdown(self) -> None:
        """Release the worker pool (a later execute() recreates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._installed_state = None
        self._installed_digest = None

    def __del__(self) -> None:
        # An abandoned backend's executor would otherwise linger until
        # interpreter teardown, where its atexit hook can hit
        # already-closed pipes and print ignored tracebacks.
        try:
            self.shutdown()
        except Exception:
            pass

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(n_workers={self.n_workers})"


class AlgorithmFactory:
    """A picklable zero-argument algorithm factory.

    Wraps an importable callable (usually an algorithm class) plus its
    arguments, so experiment specs can fan out to worker processes where
    a lambda or closure could not.

    >>> from repro.algorithms.vanilla import VanillaGossip
    >>> factory = AlgorithmFactory(VanillaGossip)
    >>> factory().name
    'vanilla'
    """

    def __init__(
        self,
        target: "Callable[..., GossipAlgorithm]",
        /,
        *args: Any,
        **kwargs: Any,
    ) -> None:
        if not callable(target):
            raise SimulationError(
                f"AlgorithmFactory target must be callable, got {target!r}"
            )
        self.target = target
        self.args = args
        self.kwargs = kwargs

    def __call__(self) -> GossipAlgorithm:
        return self.target(*self.args, **self.kwargs)

    def __repr__(self) -> str:
        parts = [getattr(self.target, "__name__", repr(self.target))]
        parts += [repr(a) for a in self.args]
        parts += [f"{k}={v!r}" for k, v in self.kwargs.items()]
        return f"AlgorithmFactory({', '.join(parts)})"


def default_n_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (1, i.e. serial, when unset)."""
    raw = os.environ.get(WORKERS_ENV_VAR)
    if raw is None:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise SimulationError(
            f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise SimulationError(f"{WORKERS_ENV_VAR} must be positive, got {workers}")
    return workers


#: Resolved process backends, one per worker count, so every estimator
#: call in an experiment run shares one warm worker pool instead of
#: paying pool startup per call.  Lives for the process lifetime; build
#: a ProcessPoolBackend directly for a private pool.
_SHARED_PROCESS_BACKENDS: "dict[int, ProcessPoolBackend]" = {}


def shared_process_backend(n_workers: "int | None" = None) -> ProcessPoolBackend:
    """The process-wide backend (and warm pool) for ``n_workers``."""
    workers = n_workers if n_workers is not None else os.cpu_count() or 1
    backend = _SHARED_PROCESS_BACKENDS.get(workers)
    if backend is None:
        backend = ProcessPoolBackend(workers)
        _SHARED_PROCESS_BACKENDS[workers] = backend
    return backend


def shutdown_shared_backends(only: "set[int] | None" = None) -> None:
    """Release shared pools' worker processes.

    Long-lived hosts (the CLI when called programmatically, notebooks)
    call this after a batch of parallel work; later resolutions
    transparently build fresh pools.  ``only`` restricts the teardown to
    specific worker counts — used to release just the pools a scoped
    piece of work created while leaving the host's own pools warm.
    """
    keys = list(_SHARED_PROCESS_BACKENDS) if only is None else [
        key for key in only if key in _SHARED_PROCESS_BACKENDS
    ]
    for key in keys:
        _SHARED_PROCESS_BACKENDS.pop(key).shutdown()


@contextlib.contextmanager
def scoped_shared_backends():
    """Release, on exit, the shared pools created inside the block.

    Pools the host already had warm on entry are left untouched — this
    is the scoped-cleanup companion to :func:`shared_process_backend`
    for embedders (the CLI uses it around a whole experiment run).
    """
    before = set(_SHARED_PROCESS_BACKENDS)
    try:
        yield
    finally:
        shutdown_shared_backends(only=set(_SHARED_PROCESS_BACKENDS) - before)


#: Name -> factory behind :func:`resolve_backend`.  Factories take the
#: requested worker count (``None`` = backend default) and return a
#: ready backend.
_BACKEND_FACTORIES: "dict[str, Callable[[int | None], ExecutionBackend]]" = {
    "serial": lambda n_workers: SerialBackend(),
    "process": shared_process_backend,
}


def registered_backends() -> "tuple[str, ...]":
    """The backend names :func:`resolve_backend` accepts (sorted)."""
    return tuple(sorted(_BACKEND_FACTORIES))


def resolve_backend(
    backend: "ExecutionBackend | str | None" = None,
    *,
    n_workers: "int | None" = None,
) -> ExecutionBackend:
    """Coerce a backend choice into an :class:`ExecutionBackend`.

    Accepts an existing backend instance (returned unchanged), a
    backend name (``"serial"`` or ``"process"``), or ``None`` — in
    which case ``n_workers`` (falling back to the ``REPRO_WORKERS``
    environment variable, then 1) selects serial execution for one
    worker and a process pool otherwise.

    Name- and count-resolved process backends are shared per worker
    count (:func:`shared_process_backend`), so back-to-back estimator
    calls reuse one warm pool; pass a :class:`ProcessPoolBackend`
    instance instead when a private pool is wanted.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if isinstance(backend, str):
        factory = _BACKEND_FACTORIES.get(backend)
        if factory is None:
            raise SimulationError(
                f"unknown backend {backend!r}; known backends: "
                f"{', '.join(registered_backends())}"
            )
        if n_workers is None and os.environ.get(WORKERS_ENV_VAR) is not None:
            # A named backend must honor the documented REPRO_WORKERS
            # fallback too; with the variable unset the process backend
            # keeps its own default (cpu_count).
            n_workers = default_n_workers()
        return factory(n_workers)
    if backend is not None:
        raise SimulationError(
            f"backend must be an ExecutionBackend, str or None, "
            f"got {type(backend).__name__}"
        )
    if n_workers is None:
        n_workers = default_n_workers()
    if n_workers < 1:
        raise SimulationError(f"n_workers must be positive, got {n_workers}")
    if n_workers == 1:
        return SerialBackend()
    return shared_process_backend(n_workers)
