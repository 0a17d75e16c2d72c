"""Elastic, fault-tolerant TCP cluster execution backend.

:class:`ClusterBackend` is the third :class:`~repro.engine.backends
.ExecutionBackend`: a coordinator that shards :class:`~repro.engine
.backends.ReplicateSpec` batches over worker *processes* connected by
TCP — spawned locally (``repro worker --connect host:port`` under the
hood), attached from other machines, or both.  It speaks the same
``ReplicateSpec``/shared-state protocol as the process pool, so every
caller of ``execute``/``execute_shared`` (estimators, the sweep
scheduler) gains multi-host fan-out without changing a line.

**Reproducibility under failure.**  All randomness lives inside each
spec's :class:`~numpy.random.SeedSequence` and
:func:`~repro.engine.backends.execute_replicate` is a pure function of
the spec, so *where* (and how many times) a replicate runs can never
change its result.  The coordinator therefore only has to deliver
exactly-once *semantics*, not exactly-once *execution*: every task
carries a globally unique id, at-least-once delivery (reassignment after
a crash, duplicated sends from a sick worker, speculative re-execution
of a straggler's task, stale results from a previous batch) collapses in
the coordinator's result table, and results return in submission order.
``SweepResult`` artifacts are therefore **byte-identical** to
:class:`~repro.engine.backends.SerialBackend` for the same root seed —
including under injected worker crashes and membership churn, which the
fault-injection suite (``tests/integration/test_cluster_faults.py``)
pins down.

**Elastic membership.**  The fleet is a *target*, not a roster: the
coordinator accepts attachments whenever its event loop runs, so workers
may join mid-sweep (they are handed shards of the current batch
immediately), drain gracefully (``--drain-after`` or SIGTERM → finish
the in-flight spec, send :data:`~repro.engine.wire.MSG_GOODBYE`, detach
— no crash path, no retry cost), and reconnect after a network flap
(exponential backoff with decorrelated jitter worker-side; a grace
window coordinator-side keeps the spawned process adopted so the
returning worker resumes its identity and its installed shared state).
Respawn budgets are fleet-size targets the coordinator converges toward.

**Authentication.**  Every connection starts with a mutual HMAC-SHA256
challenge-response keyed by the shared token (``--auth-token`` /
``REPRO_CLUSTER_TOKEN``); see :mod:`repro.engine.wire`.  No pickle
crosses the wire in either direction before the handshake completes, so
a stranger reaching the coordinator port can neither execute code nor
make the coordinator deserialize anything.

**Failure detection and recovery.**  Three mechanisms, in order of
latency: a closed socket (worker crash → immediate EOF), a heartbeat
timeout (workers push :data:`~repro.engine.wire.MSG_HEARTBEAT` from a
background thread, so a busy straggler stays alive while a hung or
partitioned worker is declared dead), and a per-batch respawn budget
that rebuilds locally spawned workers.  A dead worker's in-flight specs
are reassigned to the front of the queue; a spec that keeps killing
workers exhausts ``max_task_retries`` and raises a non-retryable
:class:`~repro.errors.ClusterError`, while a transient full-fleet loss
raises a *retryable* one that the engine's round-level retry
(:class:`~repro.engine.sweeps.SweepRunner`) turns into one clean re-run
of the batch.  Near the end of a batch, idle workers speculatively
re-execute the oldest still-outstanding tasks (straggler hedging) —
task-id dedup makes the duplicate free.

**Shared-state shipping.**  ``execute_shared`` reuses the content-digest
scheme from :mod:`repro.engine.backends`: the mapping is pickled once
per batch (identity/digest cached across batches), shipped to each
worker at most once per digest via a :data:`~repro.engine.wire
.MSG_STATE` frame, and slim specs resolve worker-side — so a sweep's
per-replicate wire payload shrinks to (seed, run kwargs) exactly as on
the process pool.  A reconnecting worker reports its installed digest
during the handshake, so shipping stays at-most-once per digest across
connection flaps.

**Fault injection.**  Workers accept a :class:`FaultPlan` (CLI
``--fault``) that makes failure deterministic enough to test: crash
after N results, drop the connection, disconnect-and-reconnect, drain
gracefully, join late, duplicate every result frame, or run slow.  This
is a test/chaos hook; production workers run with no plan.
"""

from __future__ import annotations

import itertools
import os
import pickle
import random
import secrets
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.engine import wire
from repro.engine.backends import (
    ExecutionBackend,
    ReplicateSpec,
    check_batch_picklable,
    check_no_recorder,
    pickle_shared_state,
    resolve_replicate_spec,
    spec_has_refs,
)
from repro.engine.kernels import execute_specs, new_kernel_stats
from repro.engine.results import RunResult
from repro.errors import ClusterAuthError, ClusterError

#: How long a worker waits for the coordinator before giving up.
WORKER_CONNECT_TIMEOUT = 30.0

#: Per-connection worker-side read/write deadline: a hung coordinator
#: cannot wedge a worker's send forever.
WORKER_IO_TIMEOUT = 30.0

#: How often an idle worker wakes from ``recv`` to poll its drain flag.
WORKER_POLL_INTERVAL = 0.25

#: Bytes read per readiness event on the coordinator side.
_RECV_CHUNK = 1 << 16


# ----------------------------------------------------------------------
# fault injection plans (test/chaos hook)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic misbehavior for one worker (fault-injection tests).

    Attributes
    ----------
    die_after:
        Crash the worker process (no goodbye, like OOM/SIGKILL) once it
        has sent this many results, on receipt of its next task — so
        that task is always in flight when it dies.
    drop_after:
        Close the TCP connection once this many results are sent, on
        receipt of the next task, but exit cleanly — a network drop
        rather than a process death.
    disconnect_after:
        Close the TCP connection once this many results are sent, on
        receipt of the next task, and *reconnect* with backoff — a WAN
        flap.  Fires once per worker process.
    drain_after:
        Detach gracefully (GOODBYE, results all delivered) after this
        many results — a scale-down event, not a failure.
    slow_start:
        Sleep this many seconds before first connecting — a worker that
        joins the fleet mid-sweep.
    duplicate_results:
        Send every result frame twice (exercises coordinator dedup).
    slow:
        Sleep this many seconds before each task (a straggler that must
        *not* be declared dead while its heartbeats keep flowing).

    A spawned worker armed with a counted fault or ``slow`` is served
    first: until every such worker has been sent its
    :meth:`engagement_tasks` tasks, the coordinator sends tasks to no
    other worker, so each fault fires whichever worker connects first.
    """

    die_after: "int | None" = None
    drop_after: "int | None" = None
    disconnect_after: "int | None" = None
    drain_after: "int | None" = None
    slow_start: float = 0.0
    duplicate_results: bool = False
    slow: float = 0.0

    def __post_init__(self) -> None:
        for name in ("die_after", "drop_after", "disconnect_after", "drain_after"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ClusterError(f"{name} must be >= 1, got {value}")
        if self.slow < 0:
            raise ClusterError(f"slow must be >= 0, got {self.slow}")
        if self.slow_start < 0:
            raise ClusterError(f"slow_start must be >= 0, got {self.slow_start}")

    @classmethod
    def parse(cls, text: "str | None") -> "FaultPlan":
        """Parse the CLI form: comma-separated fault tokens.

        ``die-after:N`` / ``drop-after:N`` / ``disconnect-after:N`` /
        ``drain-after:N`` / ``slow-start:SECONDS`` /
        ``duplicate-results`` / ``slow:SECONDS`` — e.g.
        ``"die-after:3,slow:0.05"``.
        """
        if not text:
            return cls()
        kwargs: "dict[str, Any]" = {}
        for token in text.split(","):
            token = token.strip()
            name, _, value = token.partition(":")
            try:
                if name == "die-after":
                    kwargs["die_after"] = int(value)
                elif name == "drop-after":
                    kwargs["drop_after"] = int(value)
                elif name == "disconnect-after":
                    kwargs["disconnect_after"] = int(value)
                elif name == "drain-after":
                    kwargs["drain_after"] = int(value)
                elif name == "slow-start":
                    kwargs["slow_start"] = float(value)
                elif name == "duplicate-results":
                    kwargs["duplicate_results"] = True
                elif name == "slow":
                    kwargs["slow"] = float(value)
                else:
                    raise ClusterError(
                        f"unknown fault token {token!r}; expected "
                        "die-after:N, drop-after:N, disconnect-after:N, "
                        "drain-after:N, slow-start:SECONDS, "
                        "duplicate-results or slow:SECONDS"
                    )
            except ValueError:
                raise ClusterError(
                    f"fault token {token!r} has a malformed value"
                ) from None
        return cls(**kwargs)

    def engagement_tasks(self) -> int:
        """Tasks this worker must be sent before its fault engages.

        ``N + 1`` for a fault counted after ``N`` results (the extra
        task is the one in flight when it fires), ``1`` for ``slow``,
        and ``0`` — no hold — for the rest.
        """
        counts = [
            count + 1
            for count in (
                self.die_after,
                self.drop_after,
                self.disconnect_after,
                self.drain_after,
            )
            if count is not None
        ]
        if self.slow:
            counts.append(1)
        return max(counts, default=0)

    def to_text(self) -> "str | None":
        """Inverse of :meth:`parse` (``None`` when no fault is armed)."""
        tokens = []
        if self.die_after is not None:
            tokens.append(f"die-after:{self.die_after}")
        if self.drop_after is not None:
            tokens.append(f"drop-after:{self.drop_after}")
        if self.disconnect_after is not None:
            tokens.append(f"disconnect-after:{self.disconnect_after}")
        if self.drain_after is not None:
            tokens.append(f"drain-after:{self.drain_after}")
        if self.slow_start:
            tokens.append(f"slow-start:{self.slow_start}")
        if self.duplicate_results:
            tokens.append("duplicate-results")
        if self.slow:
            tokens.append(f"slow:{self.slow}")
        return ",".join(tokens) if tokens else None


# ----------------------------------------------------------------------
# the worker loop (``repro ... worker --connect host:port``)
# ----------------------------------------------------------------------


def _jittered_backoff(base: float, previous: float, cap: float = 10.0) -> float:
    """Decorrelated-jitter exponential backoff (AWS architecture blog).

    Each delay is drawn uniformly from ``[base, 3 * previous]`` and
    capped, which decorrelates a fleet of workers reconnecting after the
    same network event without the synchronized retry spikes plain
    exponential backoff produces.
    """
    return min(cap, random.uniform(base, max(base, previous * 3.0)))


def new_worker_id() -> str:
    """A stable-for-the-process, globally unique worker identity."""
    return f"{socket.gethostname()}-{os.getpid()}-{secrets.token_hex(4)}"


class _WorkerState:
    """State that must survive a worker's reconnects.

    The installed shared-state mapping (and its digest, reported during
    the handshake so the coordinator keeps shipping at-most-once per
    digest), the completed-result count (fault triggers are cumulative
    across connections), and one-shot fault latches.
    """

    __slots__ = ("installed", "installed_digest", "completed", "disconnect_fired")

    def __init__(self) -> None:
        self.installed: "dict[str, Any]" = {}
        self.installed_digest: "str | None" = None
        self.completed = 0
        self.disconnect_fired = False


def worker_handshake(
    conn: "wire.Connection",
    token: str,
    worker_id: str,
    *,
    installed_digest: "str | None" = None,
    timeout: float = WORKER_CONNECT_TIMEOUT,
) -> None:
    """Run the worker side of the mutual HMAC handshake on ``conn``.

    On success the connection's pickle dialect is unlocked.  Raises
    :class:`ClusterAuthError` when either side fails authentication
    (not worth retrying) and :class:`ClusterError` for transport-level
    trouble (retryable with a fresh connection).
    """
    frame = conn.recv(timeout=timeout)
    if frame is wire.TIMEOUT or frame is None:
        raise ClusterError("coordinator never sent an auth challenge")
    kind, payload = frame
    if kind != wire.MSG_AUTH_CHALLENGE or not isinstance(payload, dict):
        raise ClusterError(f"expected auth challenge, got {kind!r}")
    versions = payload.get("versions")
    if not isinstance(versions, list) or wire.WIRE_VERSION not in versions:
        raise ClusterError(
            f"no common wire version (coordinator offers {versions!r}, "
            f"this worker speaks {list(wire.SUPPORTED_WIRE_VERSIONS)})"
        )
    challenge = payload.get("nonce")
    if not isinstance(challenge, str):
        raise ClusterError("malformed auth challenge (missing nonce)")
    nonce = wire.new_nonce()
    conn.send_json(
        wire.MSG_AUTH_RESPONSE,
        {
            "version": wire.WIRE_VERSION,
            "nonce": nonce,
            "worker_id": worker_id,
            "pid": os.getpid(),
            "installed_digest": installed_digest,
            "mac": wire.compute_mac(token, "worker", challenge, nonce, worker_id),
        },
    )
    reply = conn.recv(timeout=timeout)
    if reply is wire.TIMEOUT or reply is None:
        raise ClusterError("coordinator never answered the auth response")
    kind, payload = reply
    if kind == wire.MSG_AUTH_REJECT:
        reason = payload.get("reason") if isinstance(payload, dict) else None
        raise ClusterAuthError(f"coordinator rejected this worker: {reason}")
    if kind != wire.MSG_AUTH_OK or not isinstance(payload, dict):
        raise ClusterError(f"expected auth-ok, got {kind!r}")
    if not wire.verify_mac(
        token, "coordinator", (nonce, challenge), payload.get("mac")
    ):
        raise ClusterAuthError(
            "coordinator failed mutual authentication; refusing to "
            "deserialize anything it sends"
        )
    conn.allow_pickle = True


def _send_goodbye(conn: "wire.Connection", reason: str) -> str:
    try:
        conn.send(wire.MSG_GOODBYE, {"reason": reason})
        # Wait for the coordinator to acknowledge the drain by closing
        # the connection.  Closing first — with pipelined TASK frames
        # possibly still unread in our receive buffer — would RST the
        # link and could tear the goodbye (and the final result frames
        # ahead of it) out of the coordinator's receive queue.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            frame = conn.recv(timeout=0.25)
            if frame is None:
                break
    except (ClusterError, OSError):
        pass
    conn.close()
    return "drained"


def _worker_session(
    conn: "wire.Connection",
    plan: FaultPlan,
    state: _WorkerState,
    drain: "threading.Event",
    heartbeat_interval: float,
    drain_after: "int | None",
) -> str:
    """One authenticated connection's receive loop.

    Returns an outcome tag: ``"shutdown"`` / ``"gone"`` / ``"drained"``
    / ``"dropped"`` end the worker cleanly, ``"lost"`` asks the outer
    loop to reconnect, ``"fatal"`` aborts with a nonzero exit.
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_interval):
            try:
                conn.send(wire.MSG_HEARTBEAT, {})
            except OSError:
                return

    threading.Thread(target=beat, name="repro-heartbeat", daemon=True).start()
    try:
        while True:
            if drain.is_set():
                return _send_goodbye(conn, "drain requested by signal")
            frame = conn.recv(timeout=WORKER_POLL_INTERVAL)
            if frame is wire.TIMEOUT:
                continue
            if frame is None:
                return "gone"  # coordinator closed deliberately
            kind, payload = frame
            if kind == wire.MSG_SHUTDOWN:
                return "shutdown"
            if kind == wire.MSG_STATE:
                state.installed = pickle.loads(payload["blob"])
                digest = payload.get("digest")
                state.installed_digest = digest if isinstance(digest, str) else None
                continue
            if kind != wire.MSG_TASK:
                continue  # tolerate unknown kinds (forward compatibility)
            if plan.die_after is not None and state.completed >= plan.die_after:
                os._exit(17)  # simulated crash: no cleanup, no goodbye
            if plan.drop_after is not None and state.completed >= plan.drop_after:
                conn.close()  # simulated network drop (exits cleanly)
                return "dropped"
            if (
                plan.disconnect_after is not None
                and not state.disconnect_fired
                and state.completed >= plan.disconnect_after
            ):
                state.disconnect_fired = True
                conn.close()  # simulated WAN flap: reconnect with backoff
                return "lost"
            task_id = payload["task_id"]
            spec: ReplicateSpec = payload["spec"]
            if plan.slow:
                time.sleep(plan.slow)
            try:
                if spec_has_refs(spec):
                    spec = resolve_replicate_spec(spec, state.installed)
                # Kernel dispatch at batch size 1: spec.kernel rides the
                # wire inside the spec, so kernel="vectorized" engages
                # the lockstep path here too (auto stays scalar below
                # the batch-width floor); the kernel used is reported
                # back for the coordinator's engagement counters.
                kernel_stats = new_kernel_stats()
                result = execute_specs([spec], stats=kernel_stats)[0]
            except Exception as exc:  # deterministic: report, don't die
                conn.send(
                    wire.MSG_ERROR,
                    {
                        "task_id": task_id,
                        "message": f"{type(exc).__name__}: {exc}",
                    },
                )
                continue
            kernel_used = (
                "vectorized" if kernel_stats["vectorized_replicates"] else "scalar"
            )
            reply = {
                "task_id": task_id,
                "result": result,
                "kernel": kernel_used,
            }
            conn.send(wire.MSG_RESULT, reply)
            if plan.duplicate_results:
                conn.send(wire.MSG_RESULT, reply)
            state.completed += 1
            if drain_after is not None and state.completed >= drain_after:
                return _send_goodbye(
                    conn, f"drained after {state.completed} results"
                )
    except (ClusterError, OSError) as exc:
        print(
            f"worker: connection lost ({type(exc).__name__}: {exc})",
            file=sys.stderr,
        )
        return "lost"
    except Exception as exc:
        # A STATE/TASK payload this checkout cannot unpickle, or another
        # non-transport failure: reconnecting cannot help.
        print(
            f"worker: giving up ({type(exc).__name__}: {exc})",
            file=sys.stderr,
        )
        return "fatal"
    finally:
        stop.set()


def run_worker(
    host: str,
    port: int,
    *,
    fault: "FaultPlan | str | None" = None,
    heartbeat_interval: float = 1.0,
    auth_token: "str | None" = None,
    worker_id: "str | None" = None,
    drain_after: "int | None" = None,
    max_reconnects: int = 5,
    reconnect_backoff: float = 1.0,
) -> int:
    """Connect to a coordinator and execute tasks until told to stop.

    The worker is an outer (re)connect loop around a simple session: one
    receive loop plus a daemon heartbeat thread (so liveness signals
    flow even while a task computes).  Shared-state mappings install on
    :data:`~repro.engine.wire.MSG_STATE` and persist across reconnects;
    slim specs resolve against the installed mapping.

    Connection loss triggers reconnection with decorrelated-jitter
    exponential backoff (``reconnect_backoff`` seed, ``max_reconnects``
    consecutive failures allowed); the worker keeps its ``worker_id``
    across attempts so the coordinator can hand back its identity and
    skip re-shipping shared state.  SIGTERM (or ``drain_after``) drains
    gracefully: finish the in-flight spec, send GOODBYE, exit 0.

    Returns a process exit code: 0 clean, 1 gave up, 2 coordinator
    unreachable, 3 authentication rejected.
    """
    plan = FaultPlan.parse(fault) if isinstance(fault, str) else (fault or FaultPlan())
    token = wire.resolve_auth_token(auth_token)
    wid = worker_id or new_worker_id()
    if plan.drain_after is not None:
        drain_after = (
            plan.drain_after
            if drain_after is None
            else min(drain_after, plan.drain_after)
        )
    state = _WorkerState()
    drain = threading.Event()
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda *_args: drain.set())
    if plan.slow_start:
        time.sleep(plan.slow_start)  # a worker that joins mid-sweep

    ever_connected = False
    failures = 0
    delay = reconnect_backoff

    def back_off(why: str) -> bool:
        """Sleep before the next attempt; False once the budget is gone."""
        nonlocal failures, delay
        failures += 1
        if failures > max_reconnects:
            print(
                f"worker: giving up after {failures} attempts ({why})",
                file=sys.stderr,
            )
            return False
        delay = _jittered_backoff(reconnect_backoff, delay)
        time.sleep(delay)
        return True

    while True:
        try:
            sock = socket.create_connection(
                (host, port), timeout=WORKER_CONNECT_TIMEOUT
            )
        except OSError as exc:
            if not ever_connected:
                print(
                    f"worker: cannot reach coordinator {host}:{port}: {exc}",
                    file=sys.stderr,
                )
                return 2
            if not back_off(f"reconnect failed: {exc}"):
                return 1
            continue
        ever_connected = True
        sock.settimeout(WORKER_IO_TIMEOUT)
        conn = wire.Connection(sock, allow_pickle=False)
        try:
            worker_handshake(
                conn, token, wid, installed_digest=state.installed_digest
            )
        except ClusterAuthError as exc:
            conn.close()
            print(f"worker: {exc}", file=sys.stderr)
            return 3
        except (ClusterError, OSError) as exc:
            conn.close()
            if not back_off(f"handshake failed: {exc}"):
                return 1
            continue
        failures = 0
        delay = reconnect_backoff
        outcome = _worker_session(
            conn, plan, state, drain, heartbeat_interval, drain_after
        )
        conn.close()
        if outcome in ("shutdown", "gone", "drained", "dropped"):
            return 0
        if outcome == "fatal":
            return 1
        if not back_off("connection lost"):
            return 1


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------


class _WorkerHandle:
    """Coordinator-side bookkeeping for one connected worker."""

    _ids = itertools.count()

    def __init__(self, sock: socket.socket) -> None:
        self.id = next(self._ids)
        self.sock = sock
        # Pickle stays locked (and the frame cap stays at the handshake
        # bound) until the peer completes the HMAC handshake.
        self.decoder = wire.FrameDecoder(
            max_frame_bytes=wire.HANDSHAKE_MAX_FRAME_BYTES, allow_pickle=False
        )
        self.challenge = wire.new_nonce()
        self.auth: "Mapping[str, Any] | None" = None
        self.worker_id: "str | None" = None
        self.draining = False
        self.proc: "subprocess.Popen | None" = None
        self.installed_digest: "str | None" = None
        #: task id -> monotonic send time (feeds straggler speculation).
        self.inflight: "dict[int, float]" = {}
        self.created_at = time.monotonic()
        self.last_seen = self.created_at
        self.results_delivered = 0

    @property
    def ready(self) -> bool:
        """True once the worker authenticated (tasks may be sent)."""
        return self.auth is not None

    def send(self, kind: str, payload: "Any") -> None:
        self.sock.sendall(wire.encode_frame(kind, payload))

    def send_json(self, kind: str, payload: "Any") -> None:
        self.sock.sendall(wire.encode_json_frame(kind, payload))

    def __repr__(self) -> str:
        return (
            f"_WorkerHandle(id={self.id}, ready={self.ready}, "
            f"worker_id={self.worker_id!r})"
        )


class ClusterBackend(ExecutionBackend):
    """Execute replicate batches over TCP-connected worker processes.

    Parameters
    ----------
    n_workers:
        Fleet-size *target* the coordinator converges toward (local
        spawns) or expects (external attachments).  Membership is
        elastic: workers may attach, drain, and reconnect mid-sweep.
    host / port:
        Coordinator bind address; port 0 picks an ephemeral port (read
        it back from :attr:`address`).  Bind a routable host (e.g.
        ``"0.0.0.0"``) to let workers on other machines attach with
        ``repro ... worker --connect <host>:<port>``.
    spawn_workers:
        Spawn ``n_workers`` local worker processes on first use and
        respawn them after failures (default).  ``False`` waits for
        external workers to attach instead.
    worker_faults:
        Optional per-spawn-ordinal fault plans (test/chaos hook):
        element ``i`` arms the ``i``-th worker ever spawned; respawned
        replacements beyond the list run clean.
    auth_token:
        Shared secret for the HMAC handshake; defaults to
        ``REPRO_CLUSTER_TOKEN`` (empty = localhost trust, but the
        handshake still runs).  Spawned workers inherit it via their
        environment, never via argv.
    heartbeat_timeout:
        Seconds of silence after which a worker is declared dead and its
        in-flight specs reassigned.  Workers heartbeat from a background
        thread, so a straggler mid-task stays alive.
    connect_timeout:
        Seconds to wait for the first ready worker of a batch.
    handshake_timeout:
        Seconds a new connection may spend unauthenticated before it is
        dropped (a stranger cannot hold a socket open indefinitely).
    reconnect_grace:
        Seconds the coordinator keeps a disconnected spawned worker's
        process adopted, waiting for it to reconnect, before terminating
        it and (budget permitting) respawning.
    speculation_delay:
        Once the batch queue is empty, an idle worker speculatively
        re-executes the oldest task that has been in flight longer than
        this many seconds (0 disables).  Dedup makes this free of
        double-count risk.
    window:
        In-flight specs per worker (pipelining depth; keeps a worker's
        next task in its socket buffer while it computes the current
        one).
    max_task_retries:
        Reassignments one spec may survive before the batch fails — a
        spec that kills every worker it lands on must not retry forever.
    max_respawns:
        Local respawns allowed per batch (default: ``n_workers``).
    max_frame_bytes:
        Per-connection frame-size cap once authenticated (the handshake
        itself always runs under the much smaller handshake cap).
    worker_reconnects / worker_reconnect_backoff:
        Reconnect budget and backoff seed passed to spawned workers.
    """

    name = "cluster"

    def __init__(
        self,
        n_workers: "int | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_workers: bool = True,
        worker_faults: "Sequence[FaultPlan | str | None] | None" = None,
        auth_token: "str | None" = None,
        heartbeat_timeout: float = 30.0,
        connect_timeout: float = 60.0,
        handshake_timeout: float = 10.0,
        reconnect_grace: float = 10.0,
        speculation_delay: float = 5.0,
        window: int = 2,
        max_task_retries: int = 3,
        max_respawns: "int | None" = None,
        io_timeout: float = 30.0,
        max_frame_bytes: int = wire.MAX_FRAME_BYTES,
        worker_reconnects: int = 3,
        worker_reconnect_backoff: float = 0.25,
    ) -> None:
        if n_workers is None:
            n_workers = 2
        if n_workers < 1:
            raise ClusterError(f"n_workers must be positive, got {n_workers}")
        if window < 1:
            raise ClusterError(f"window must be positive, got {window}")
        if heartbeat_timeout <= 0 or connect_timeout <= 0 or handshake_timeout <= 0:
            raise ClusterError("timeouts must be positive")
        if reconnect_grace < 0 or speculation_delay < 0:
            raise ClusterError("reconnect_grace and speculation_delay must be >= 0")
        if max_frame_bytes < wire.HANDSHAKE_MAX_FRAME_BYTES:
            raise ClusterError(
                f"max_frame_bytes must be at least "
                f"{wire.HANDSHAKE_MAX_FRAME_BYTES}, got {max_frame_bytes}"
            )
        if worker_reconnects < 0 or worker_reconnect_backoff <= 0:
            raise ClusterError("worker reconnect knobs must be positive")
        self.n_workers = int(n_workers)
        self.host = host
        self.port = port
        self.spawn_workers = spawn_workers
        self.worker_faults = list(worker_faults or [])
        self.auth_token = wire.resolve_auth_token(auth_token)
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self.handshake_timeout = handshake_timeout
        self.reconnect_grace = reconnect_grace
        self.speculation_delay = speculation_delay
        self.window = int(window)
        self.max_task_retries = int(max_task_retries)
        self.max_respawns = (
            int(max_respawns) if max_respawns is not None else self.n_workers
        )
        self.io_timeout = io_timeout
        self.max_frame_bytes = int(max_frame_bytes)
        self.worker_reconnects = int(worker_reconnects)
        self.worker_reconnect_backoff = worker_reconnect_backoff
        self._listener: "socket.socket | None" = None
        self._selector: "selectors.BaseSelector | None" = None
        self._workers: "dict[int, _WorkerHandle]" = {}
        self._pending_procs: "dict[int, subprocess.Popen]" = {}  # pid -> proc
        #: worker_id -> (adopted process, reconnect deadline): spawned
        #: workers whose connection dropped but whose process may still
        #: come back within the grace window.
        self._disconnected: "dict[str, tuple[subprocess.Popen, float]]" = {}
        #: Every worker_id that ever authenticated (re-auth = reconnect).
        self._seen_worker_ids: "set[str]" = set()
        self._spawn_ordinal = 0
        #: pid -> tasks a fault-armed spawn must still be sent before the
        #: rest of the fleet gets any (see FaultPlan.engagement_tasks).
        self._engagement_holds: "dict[int, int]" = {}
        self._respawns_left = self.max_respawns
        self._free_spawns = 0
        self._next_task_id = 0
        #: Cached (mapping, digest, blob) so a sweep's stable mapping is
        #: pickled once, not once per round (identity first, then digest
        #: — the scheme shared with ProcessPoolBackend).
        self._state_cache: "tuple[Mapping[str, Any], str, bytes] | None" = None
        #: Failure/recovery telemetry, cumulative across batches; the
        #: fault-injection suite asserts on these.
        self.stats: "dict[str, int]" = {}
        self.reset_stats()
        #: Kernel-engagement counters aggregated from worker result
        #: frames (see :func:`repro.engine.kernels.new_kernel_stats`).
        #: Each cluster task is a one-spec kernel dispatch, so a
        #: vectorized replicate counts as its own install.
        self.kernel_stats = new_kernel_stats()

    def reset_stats(self) -> None:
        """Zero the failure/recovery/membership counters."""
        self.stats = {
            "batches": 0,
            "worker_failures": 0,
            "reassigned": 0,
            "duplicates_dropped": 0,
            "respawns": 0,
            "state_installs": 0,
            "auth_rejected": 0,
            "external_joins": 0,
            "reconnects": 0,
            "drains": 0,
            "speculated": 0,
        }

    # -- public backend protocol ---------------------------------------

    def execute(self, specs: "Sequence[ReplicateSpec]") -> "list[RunResult]":
        if not specs:
            return []
        return self._run_batch(list(specs), state=None)

    def execute_shared(
        self,
        specs: "Sequence[ReplicateSpec]",
        shared_state: "Mapping[str, Any]",
    ) -> "list[RunResult]":
        if not specs:
            return []
        return self._run_batch(list(specs), state=self._encode_state(shared_state))

    @property
    def address(self) -> "tuple[str, int]":
        """The coordinator's bound ``(host, port)`` (binds if needed)."""
        self._ensure_listener()
        assert self._listener is not None
        addr = self._listener.getsockname()
        return (addr[0], addr[1])

    # -- state shipping -------------------------------------------------

    def _encode_state(
        self, shared_state: "Mapping[str, Any]"
    ) -> "tuple[str, bytes]":
        if self._state_cache is not None:
            cached_mapping, digest, blob = self._state_cache
            if shared_state is cached_mapping:
                return digest, blob
        digest, blob = pickle_shared_state(shared_state)
        if self._state_cache is not None and digest == self._state_cache[1]:
            blob = self._state_cache[2]
        self._state_cache = (shared_state, digest, blob)
        return digest, blob

    # -- fleet management ----------------------------------------------

    def _ensure_listener(self) -> None:
        if self._listener is not None:
            return
        listener = socket.create_server(
            (self.host, self.port), backlog=max(16, 2 * self.n_workers)
        )
        listener.setblocking(False)
        self._listener = listener
        self._selector = selectors.DefaultSelector()
        self._selector.register(listener, selectors.EVENT_READ, data=None)

    def _fault_for(self, ordinal: int) -> "str | None":
        if ordinal >= len(self.worker_faults):
            return None
        fault = self.worker_faults[ordinal]
        if fault is None:
            return None
        if isinstance(fault, FaultPlan):
            return fault.to_text()
        return str(fault)

    def _spawn_worker(self) -> None:
        """Launch one local worker process pointed at the listener."""
        host, port = self.address
        connect_host = "127.0.0.1" if host in ("0.0.0.0", "::") else host
        interval = min(2.0, max(0.1, self.heartbeat_timeout / 4.0))
        command = [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "worker",
            "--connect",
            f"{connect_host}:{port}",
            "--heartbeat-interval",
            str(interval),
            "--max-reconnects",
            str(self.worker_reconnects),
            "--reconnect-backoff",
            str(self.worker_reconnect_backoff),
        ]
        fault = self._fault_for(self._spawn_ordinal)
        if fault:
            command += ["--fault", fault]
        engagement = FaultPlan.parse(fault).engagement_tasks()
        self._spawn_ordinal += 1
        import repro

        package_root = str(Path(repro.__file__).resolve().parent.parent)
        # A local worker must mirror the coordinator's import environment
        # (the fork-based process pool gets this for free): specs may
        # reference classes from any module the parent can import — the
        # test suites' module-level factories included — so ship the
        # parent's whole sys.path, with the repro package root first.
        search_path = [package_root]
        search_path += [entry for entry in sys.path if entry]
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        if existing:
            search_path.append(existing)
        env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(search_path))
        # The token travels through the environment, never argv (argv is
        # world-readable in `ps`).
        env[wire.AUTH_TOKEN_ENV_VAR] = self.auth_token
        proc = subprocess.Popen(
            command,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=None,  # surface worker tracebacks in the parent's stderr
        )
        self._pending_procs[proc.pid] = proc
        if engagement:
            self._engagement_holds[proc.pid] = engagement

    def _holding_for_faults(self, batch_start: float) -> bool:
        """Whether fault-armed spawns still hold the rest of the fleet back.

        A hold lapses once its worker was sent its engagement tasks, when
        it is gone (dead, drained, disconnected) or, so that a worker
        that never starts cannot stall the batch, after
        ``connect_timeout``.
        """
        if not self._engagement_holds:
            return False
        if time.monotonic() - batch_start > self.connect_timeout:
            self._engagement_holds.clear()
            return False
        live = set(self._pending_procs)
        live.update(
            handle.proc.pid
            for handle in self._workers.values()
            if handle.proc is not None and not handle.draining
        )
        for pid in list(self._engagement_holds):
            if pid not in live:
                del self._engagement_holds[pid]
        return bool(self._engagement_holds)

    def _prune_disconnected(self) -> None:
        """Drop stashed processes that died or overstayed their grace."""
        now = time.monotonic()
        for worker_id in list(self._disconnected):
            proc, deadline = self._disconnected[worker_id]
            if proc.poll() is not None:
                del self._disconnected[worker_id]
            elif now > deadline:
                proc.terminate()
                try:
                    proc.wait(timeout=0.2)
                except subprocess.TimeoutExpired:
                    pass
                del self._disconnected[worker_id]

    def _maintain_fleet(self) -> None:
        """Converge (connected + pending + awaiting-reconnect) local
        workers toward the ``n_workers`` target.

        Each batch may bring the fleet up to strength for free (its
        ``_free_spawns`` allowance, set at batch start and credited when
        a worker drains gracefully); every further spawn is a respawn
        and draws on the per-batch budget, so a worker that crashes on
        arrival cannot respawn-loop forever — while a *retried* batch
        starts with a fresh allowance and can rebuild a fully lost
        fleet.  Disconnected-but-alive spawned workers count toward the
        target while their reconnect grace lasts.
        """
        if not self.spawn_workers:
            return
        self._prune_disconnected()
        for pid in [
            pid
            for pid, proc in self._pending_procs.items()
            if proc.poll() is not None
        ]:
            del self._pending_procs[pid]  # died before authenticating
        spawned_live = (
            sum(1 for handle in self._workers.values() if handle.proc is not None)
            + len(self._pending_procs)
            + len(self._disconnected)
        )
        while spawned_live < self.n_workers:
            if self._free_spawns > 0:
                self._free_spawns -= 1
            else:
                if self._respawns_left <= 0:
                    return
                self._respawns_left -= 1
                self.stats["respawns"] += 1
            self._spawn_worker()
            spawned_live += 1

    def _accept_connections(self) -> None:
        assert self._listener is not None and self._selector is not None
        while True:
            try:
                sock, _addr = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.settimeout(self.io_timeout)
            handle = _WorkerHandle(sock)
            self._workers[handle.id] = handle
            self._selector.register(sock, selectors.EVENT_READ, data=handle)
            try:
                handle.send_json(
                    wire.MSG_AUTH_CHALLENGE,
                    {
                        "versions": list(wire.SUPPORTED_WIRE_VERSIONS),
                        "nonce": handle.challenge,
                    },
                )
            except OSError:
                self._drop_unauthenticated(handle, "challenge send failed")

    def _drop_unauthenticated(self, handle: _WorkerHandle, reason: str) -> None:
        """Disconnect a peer that never authenticated (not a failure)."""
        self.stats["auth_rejected"] += 1
        try:
            handle.send_json(wire.MSG_AUTH_REJECT, {"reason": reason})
        except OSError:
            pass
        self._discard_handle(handle)

    def _discard_handle(self, handle: _WorkerHandle) -> None:
        assert self._selector is not None
        try:
            self._selector.unregister(handle.sock)
        except (KeyError, ValueError):
            pass
        try:
            handle.sock.close()
        except OSError:
            pass
        self._workers.pop(handle.id, None)

    def _complete_handshake(
        self, handle: _WorkerHandle, payload: "Any"
    ) -> None:
        """Verify an auth response; on success unlock the pickle dialect."""
        if not isinstance(payload, dict):
            self._drop_unauthenticated(handle, "malformed auth response")
            return
        version = payload.get("version")
        if version not in wire.SUPPORTED_WIRE_VERSIONS:
            self._drop_unauthenticated(
                handle,
                f"unsupported wire version {version!r} (this coordinator "
                f"speaks {list(wire.SUPPORTED_WIRE_VERSIONS)})",
            )
            return
        worker_id = payload.get("worker_id")
        nonce = payload.get("nonce")
        if (
            not isinstance(worker_id, str)
            or not worker_id
            or len(worker_id) > 128
            or not isinstance(nonce, str)
        ):
            self._drop_unauthenticated(handle, "malformed auth response")
            return
        if not wire.verify_mac(
            self.auth_token,
            "worker",
            (handle.challenge, nonce, worker_id),
            payload.get("mac"),
        ):
            self._drop_unauthenticated(handle, "authentication failed")
            return
        try:
            handle.send_json(
                wire.MSG_AUTH_OK,
                {
                    "version": wire.WIRE_VERSION,
                    "mac": wire.compute_mac(
                        self.auth_token, "coordinator", nonce, handle.challenge
                    ),
                },
            )
        except OSError:
            self._discard_handle(handle)
            return
        handle.auth = payload
        handle.worker_id = worker_id
        handle.decoder.allow_pickle = True
        handle.decoder.max_frame_bytes = self.max_frame_bytes
        stash = self._disconnected.pop(worker_id, None)
        if stash is not None:
            handle.proc = stash[0]  # the same spawned process came back
        else:
            pid = payload.get("pid")
            if isinstance(pid, int):
                handle.proc = self._pending_procs.pop(pid, None)
        if worker_id in self._seen_worker_ids:
            self.stats["reconnects"] += 1
        elif handle.proc is None:
            self.stats["external_joins"] += 1
        self._seen_worker_ids.add(worker_id)
        digest = payload.get("installed_digest")
        handle.installed_digest = digest if isinstance(digest, str) else None

    def _fail_worker(
        self,
        handle: _WorkerHandle,
        queue: "deque[int]",
        retries: "dict[int, int]",
        results: "dict[int, RunResult]",
        id_to_index: "dict[int, int]",
        reason: str,
    ) -> None:
        """Remove a dead worker and reassign its in-flight specs.

        A spawned worker whose *process* is still alive is stashed under
        its worker id for ``reconnect_grace`` seconds instead of being
        terminated — a WAN flap comes back, a crash does not.
        """
        self.stats["worker_failures"] += 1
        self._discard_handle(handle)
        stashed = False
        if (
            handle.proc is not None
            and handle.worker_id is not None
            and self.reconnect_grace > 0
            and handle.proc.poll() is None
        ):
            self._disconnected[handle.worker_id] = (
                handle.proc,
                time.monotonic() + self.reconnect_grace,
            )
            stashed = True
        if handle.proc is not None and not stashed:
            if handle.proc.poll() is None:
                handle.proc.terminate()
            # Reap without blocking the batch; shutdown() sweeps stragglers.
            try:
                handle.proc.wait(timeout=0.2)
            except subprocess.TimeoutExpired:
                pass
        for task_id in sorted(handle.inflight, reverse=True):
            index = id_to_index.get(task_id)
            if index is None or index in results:
                continue  # stale or already settled (speculation won)
            retries[task_id] = retries.get(task_id, 0) + 1
            if retries[task_id] > self.max_task_retries:
                raise ClusterError(
                    f"replicate task survived {self.max_task_retries} "
                    f"reassignments and still failed (last worker lost: "
                    f"{reason}); the spec itself is suspect",
                    retryable=False,
                )
            self.stats["reassigned"] += 1
            queue.appendleft(task_id)

    def _detach_drained(self, handle: _WorkerHandle) -> None:
        """A drained worker closed its connection: a clean goodbye."""
        self._discard_handle(handle)
        if handle.proc is not None:
            self._reap(handle.proc)

    # -- the batch loop -------------------------------------------------

    def _send_task(
        self,
        handle: _WorkerHandle,
        task_id: int,
        spec: ReplicateSpec,
        state: "tuple[str, bytes] | None",
    ) -> None:
        if state is not None and handle.installed_digest != state[0]:
            handle.send(wire.MSG_STATE, {"digest": state[0], "blob": state[1]})
            handle.installed_digest = state[0]
            self.stats["state_installs"] += 1
        handle.inflight[task_id] = time.monotonic()
        handle.send(wire.MSG_TASK, {"task_id": task_id, "spec": spec})

    def _run_batch(
        self,
        specs: "list[ReplicateSpec]",
        state: "tuple[str, bytes] | None",
    ) -> "list[RunResult]":
        check_no_recorder(specs, backend_hint="the cluster backend")
        check_batch_picklable(specs)
        self._ensure_listener()
        assert self._selector is not None
        self.stats["batches"] += 1
        self._respawns_left = self.max_respawns
        self._prune_disconnected()
        live = (
            sum(1 for h in self._workers.values() if h.proc is not None)
            + len(self._pending_procs)
            + len(self._disconnected)
        )
        self._free_spawns = max(0, self.n_workers - live)
        # Between batches nobody reads the sockets, so worker heartbeats
        # pile up unread in kernel buffers; without a reset, a long gap
        # would read as silence and fail a healthy fleet.  Stale in-flight
        # entries (an aborted batch) are obsolete task ids — drop them.
        fresh_start = time.monotonic()
        for handle in self._workers.values():
            handle.last_seen = fresh_start
            handle.inflight.clear()

        id_to_index: "dict[int, int]" = {}
        for index in range(len(specs)):
            id_to_index[self._next_task_id] = index
            self._next_task_id += 1
        task_ids = sorted(id_to_index)
        queue: "deque[int]" = deque(task_ids)
        results: "dict[int, RunResult]" = {}
        retries: "dict[int, int]" = {}
        speculated: "set[int]" = set()
        batch_start = time.monotonic()

        had_ready_worker = False
        while len(results) < len(specs):
            self._maintain_fleet()
            if (
                not self._workers
                and not self._pending_procs
                and not self._disconnected
                and had_ready_worker
            ):
                # The whole fleet died mid-batch.  With local spawning
                # the respawn budget is exhausted but a *fresh* batch
                # gets a fresh budget, so the failure is transient and
                # the engine's round-level retry may re-run it.
                raise ClusterError(
                    "every cluster worker was lost mid-batch and the "
                    "respawn budget is exhausted; the batch can be "
                    "retried against a fresh fleet",
                    retryable=self.spawn_workers,
                )
            now = time.monotonic()
            if any(handle.ready for handle in self._workers.values()):
                had_ready_worker = True
            elif now - batch_start > self.connect_timeout:
                raise ClusterError(
                    f"no worker became ready within {self.connect_timeout}s "
                    f"(listening on {self.address[0]}:{self.address[1]}); "
                    "check that workers can reach the coordinator",
                    retryable=False,
                )
            for handle in list(self._workers.values()):
                if (
                    not handle.ready
                    and now - handle.created_at > self.handshake_timeout
                ):
                    self._drop_unauthenticated(handle, "handshake timeout")
                elif (
                    handle.ready
                    and not handle.draining
                    and handle.inflight
                    and now - handle.last_seen > self.heartbeat_timeout
                ):
                    self._fail_worker(
                        handle,
                        queue,
                        retries,
                        results,
                        id_to_index,
                        f"no heartbeat for {self.heartbeat_timeout}s",
                    )
            self._dispatch(
                queue,
                results,
                id_to_index,
                specs,
                state,
                retries,
                self._holding_for_faults(batch_start),
            )
            if not queue:
                self._speculate(
                    queue, results, id_to_index, specs, state, retries, speculated
                )
            events = self._selector.select(timeout=0.05)
            for key, _mask in events:
                if key.data is None:
                    self._accept_connections()
                else:
                    self._read_worker(
                        key.data, queue, results, id_to_index, retries
                    )
        return [results[index] for index in range(len(specs))]

    def _dispatch(
        self,
        queue: "deque[int]",
        results: "dict[int, RunResult]",
        id_to_index: "dict[int, int]",
        specs: "list[ReplicateSpec]",
        state: "tuple[str, bytes] | None",
        retries: "dict[int, int]",
        hold: bool,
    ) -> None:
        for handle in list(self._workers.values()):
            if not handle.ready or handle.draining:
                continue
            pid = handle.proc.pid if handle.proc is not None else None
            while queue and len(handle.inflight) < self.window:
                if hold and pid not in self._engagement_holds:
                    break  # held back until every armed spawn is engaged
                task_id = queue[0]
                index = id_to_index[task_id]
                if index in results:
                    queue.popleft()  # settled while waiting for reassignment
                    continue
                queue.popleft()
                try:
                    self._send_task(handle, task_id, specs[index], state)
                except (OSError, ClusterError):
                    queue.appendleft(task_id)
                    handle.inflight.pop(task_id, None)
                    self._fail_worker(
                        handle, queue, retries, results, id_to_index,
                        "send failed",
                    )
                    break
                if pid in self._engagement_holds:
                    self._engagement_holds[pid] -= 1
                    if not self._engagement_holds[pid]:
                        del self._engagement_holds[pid]

    def _speculate(
        self,
        queue: "deque[int]",
        results: "dict[int, RunResult]",
        id_to_index: "dict[int, int]",
        specs: "list[ReplicateSpec]",
        state: "tuple[str, bytes] | None",
        retries: "dict[int, int]",
        speculated: "set[int]",
    ) -> None:
        """Hedge stragglers: idle workers re-run the oldest in-flight task.

        Only once the queue is empty (end-of-batch), only for tasks in
        flight longer than ``speculation_delay``, and at most one extra
        copy per task per batch.  The coordinator's dedup absorbs the
        losing copy, so results stay exactly-once by construction.
        """
        if not self.speculation_delay:
            return
        idle = [
            handle
            for handle in self._workers.values()
            if handle.ready and not handle.draining and not handle.inflight
        ]
        if not idle:
            return
        now = time.monotonic()
        outstanding = sorted(
            (sent_at, task_id)
            for handle in self._workers.values()
            for task_id, sent_at in handle.inflight.items()
            if task_id not in speculated
            and id_to_index.get(task_id) is not None
            and id_to_index[task_id] not in results
        )
        for handle in idle:
            if not outstanding:
                return
            sent_at, task_id = outstanding[0]
            if now - sent_at < self.speculation_delay:
                return  # the oldest copy is still young; so is the rest
            outstanding.pop(0)
            try:
                self._send_task(handle, task_id, specs[id_to_index[task_id]], state)
            except (OSError, ClusterError):
                handle.inflight.pop(task_id, None)
                self._fail_worker(
                    handle, queue, retries, results, id_to_index, "send failed"
                )
                continue
            speculated.add(task_id)
            self.stats["speculated"] += 1

    def _read_worker(
        self,
        handle: _WorkerHandle,
        queue: "deque[int]",
        results: "dict[int, RunResult]",
        id_to_index: "dict[int, int]",
        retries: "dict[int, int]",
    ) -> None:
        try:
            data = handle.sock.recv(_RECV_CHUNK)
        except OSError:
            if handle.draining:
                self._detach_drained(handle)
            elif not handle.ready:
                self._drop_unauthenticated(handle, "receive failed")
            else:
                self._fail_worker(
                    handle, queue, retries, results, id_to_index,
                    "receive failed",
                )
            return
        if not data:
            if handle.draining:
                self._detach_drained(handle)
            elif not handle.ready:
                self._drop_unauthenticated(
                    handle, "disconnected during handshake"
                )
            else:
                self._fail_worker(
                    handle, queue, retries, results, id_to_index,
                    "connection closed",
                )
            return
        handle.last_seen = time.monotonic()
        try:
            frames = handle.decoder.feed(data)
        except Exception as exc:
            # Framing errors, a pickle frame from an unauthenticated
            # peer (refused *before* pickle.loads by the decoder), AND
            # unpickleable payloads (a worker on a mismatched checkout
            # returning classes this process lacks): the stream is
            # unusable, but only *this* worker is — drop/fail it and let
            # its specs reassign rather than abort the batch.
            if not handle.ready:
                self._drop_unauthenticated(
                    handle, f"protocol violation ({type(exc).__name__}: {exc})"
                )
            else:
                self._fail_worker(
                    handle, queue, retries, results, id_to_index,
                    f"undecodable stream ({type(exc).__name__}: {exc})",
                )
            return
        for kind, payload in frames:
            if not handle.ready:
                if kind != wire.MSG_AUTH_RESPONSE:
                    self._drop_unauthenticated(
                        handle, f"unexpected {kind!r} before authentication"
                    )
                    return
                self._complete_handshake(handle, payload)
                if not handle.ready:
                    return  # handshake failed; handle already dropped
                continue
            if kind == wire.MSG_HEARTBEAT:
                pass  # last_seen already updated
            elif kind == wire.MSG_RESULT:
                task_id = payload["task_id"]
                handle.inflight.pop(task_id, None)
                handle.results_delivered += 1
                index = id_to_index.get(task_id)
                if index is None or index in results:
                    # Stale (previous batch), speculation's losing copy,
                    # or already settled elsewhere: at-least-once
                    # delivery collapses to exactly-once here.
                    self.stats["duplicates_dropped"] += 1
                else:
                    results[index] = payload["result"]
                    kernel_used = payload.get("kernel")
                    if kernel_used == "vectorized":
                        self.kernel_stats["vectorized_replicates"] += 1
                        self.kernel_stats["kernel_installs"] += 1
                    else:
                        self.kernel_stats["scalar_replicates"] += 1
            elif kind == wire.MSG_GOODBYE:
                # Graceful drain: not a failure, no retry cost.  GOODBYE
                # is the last frame the worker sends, so everything it
                # ran has been delivered; whatever was still queued on it
                # goes back to the front of the line, a spawned worker's
                # replacement is free, and closing the connection here
                # releases the worker (it lingers until our EOF so no
                # result frame can be torn off the wire by an RST).
                handle.draining = True
                self.stats["drains"] += 1
                if handle.proc is not None:
                    self._free_spawns += 1
                for task_id in sorted(handle.inflight, reverse=True):
                    index = id_to_index.get(task_id)
                    if index is None or index in results:
                        continue
                    queue.appendleft(task_id)
                handle.inflight.clear()
                self._detach_drained(handle)
                return
            elif kind == wire.MSG_ERROR:
                task_id = payload["task_id"]
                handle.inflight.pop(task_id, None)
                if task_id in id_to_index:
                    raise ClusterError(
                        "replicate failed on a cluster worker: "
                        f"{payload['message']} (execution is deterministic, "
                        "so reassignment cannot help)",
                        retryable=False,
                    )

    # -- teardown --------------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers, close sockets, release the listener."""
        for handle in list(self._workers.values()):
            if handle.ready:
                try:
                    handle.send(wire.MSG_SHUTDOWN, {})
                except OSError:
                    pass
            try:
                handle.sock.close()
            except OSError:
                pass
            if handle.proc is not None:
                self._reap(handle.proc)
        self._workers.clear()
        for proc in self._pending_procs.values():
            self._reap(proc)
        self._pending_procs.clear()
        for proc, _deadline in self._disconnected.values():
            self._reap(proc)
        self._disconnected.clear()
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        self._state_cache = None

    @staticmethod
    def _reap(proc: "subprocess.Popen") -> None:
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __del__(self) -> None:
        try:
            self.shutdown()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ClusterBackend(n_workers={self.n_workers}, "
            f"host={self.host!r}, spawn_workers={self.spawn_workers})"
        )
