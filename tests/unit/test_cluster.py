"""Unit tests for the cluster backend's building blocks.

The end-to-end fault-injection scenarios (kill/drop/duplicate/straggler
against whole sweeps) live in ``tests/integration/test_cluster_faults.py``;
this module pins the pieces those scenarios are built from: wire framing,
fault-plan parsing, backend registration/validation, exactly-once result
assembly, shared-state shipping economy, and heartbeat-based failure
detection against a scripted in-test worker.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.algorithms.vanilla import VanillaGossip
from repro.engine import wire
from repro.engine.backends import (
    SerialBackend,
    registered_backends,
    resolve_backend,
    shutdown_shared_backends,
)
from repro.engine.cluster import (
    ClusterBackend,
    FaultPlan,
    run_worker,
    worker_handshake,
)
from repro.engine.results import results_identical
from repro.engine.runner import MonteCarloRunner
from repro.errors import ClusterAuthError, ClusterError, SimulationError
from repro.graphs.topologies import complete_graph


@pytest.fixture(autouse=True)
def _release_shared_pools():
    yield
    shutdown_shared_backends()


def make_runner(backend=None, seed: int = 3) -> MonteCarloRunner:
    graph = complete_graph(6)
    x0 = [float(i) for i in range(6)]
    return MonteCarloRunner(graph, VanillaGossip, x0, seed=seed, backend=backend)


class UnsimulatableGossip(VanillaGossip):
    """Raises on setup — a deterministic failure no reassignment fixes.

    Module-level so the spec pickles to cluster workers.
    """

    def setup(self, graph, values, rng):
        raise ValueError("scripted failure")


class TestWireFraming:
    def test_frame_round_trips(self):
        decoder = wire.FrameDecoder()
        frames = decoder.feed(wire.encode_frame("task", {"task_id": 7}))
        assert frames == [("task", {"task_id": 7})]
        assert decoder.pending_bytes == 0

    def test_fragmented_and_coalesced_streams(self):
        """One frame over many feeds, and many frames in one feed."""
        payloads = [{"i": i, "blob": bytes(50 * i)} for i in range(5)]
        stream = b"".join(
            wire.encode_frame("result", payload) for payload in payloads
        )
        decoder = wire.FrameDecoder()
        collected = []
        step = 7
        for offset in range(0, len(stream), step):
            collected.extend(decoder.feed(stream[offset:offset + step]))
        assert [payload for _, payload in collected] == payloads
        # And the whole stream in one gulp.
        assert len(wire.FrameDecoder().feed(stream)) == len(payloads)

    def test_corrupt_length_prefix_rejected(self):
        decoder = wire.FrameDecoder()
        with pytest.raises(ClusterError, match="corrupt"):
            decoder.feed(b"\xff\xff\xff\xff12345678")

    def test_zero_length_frame_rejected(self):
        decoder = wire.FrameDecoder()
        with pytest.raises(ClusterError, match="zero-length"):
            decoder.feed(b"\x00\x00\x00\x00")

    def test_frame_size_cap_is_configurable(self):
        frame = wire.encode_frame("result", {"blob": bytes(4096)})
        assert wire.FrameDecoder().feed(frame)  # default cap: fine
        small = wire.FrameDecoder(max_frame_bytes=256)
        with pytest.raises(ClusterError, match="limit"):
            small.feed(frame)
        # The sender enforces the same cap before any bytes hit the wire.
        with pytest.raises(ClusterError, match="wire limit"):
            wire.encode_frame("result", {"blob": bytes(4096)},
                              max_frame_bytes=256)

    def test_json_dialect_round_trips_while_pickle_locked(self):
        decoder = wire.FrameDecoder(allow_pickle=False)
        frame = wire.encode_json_frame("auth-challenge", {"nonce": "abc"})
        assert decoder.feed(frame) == [("auth-challenge", {"nonce": "abc"})]

    def test_malformed_json_frame_rejected(self):
        def json_frame(body: bytes) -> bytes:
            return (len(body) + 1).to_bytes(4, "big") + b"J" + body

        with pytest.raises(ClusterError, match="malformed handshake"):
            wire.FrameDecoder(allow_pickle=False).feed(json_frame(b"not json"))
        # Valid JSON but the wrong shape is rejected just the same.
        with pytest.raises(ClusterError, match=r"\[kind, payload\]"):
            wire.FrameDecoder(allow_pickle=False).feed(json_frame(b'{"a":1}'))

    def test_unknown_tag_rejected(self):
        decoder = wire.FrameDecoder()
        with pytest.raises(ClusterError, match="unknown frame tag"):
            decoder.feed(b"\x00\x00\x00\x02Zb")

    def test_pickle_frame_refused_before_auth_without_unpickling(self, tmp_path):
        """The load-bearing security property: a pickle frame from an
        unauthenticated peer is rejected *before* ``pickle.loads`` ever
        sees it — proven by an armed payload whose side effect must not
        fire."""
        marker = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.mkdir, (str(marker),))

        frame = wire.encode_frame("task", Evil())
        locked = wire.FrameDecoder(allow_pickle=False)
        with pytest.raises(ClusterError, match="unauthenticated"):
            locked.feed(frame)
        assert not marker.exists()
        # Prove the payload really was armed: an unlocked decoder (the
        # post-handshake state) does detonate it.
        wire.FrameDecoder().feed(frame)
        assert marker.exists()

    def test_connection_queues_coalesced_frames(self):
        """The worker's blocking reader must hand back pipelined frames
        one at a time, in order."""
        left, right = socket.socketpair()
        try:
            conn = wire.Connection(right)
            left.sendall(
                wire.encode_frame("state", {"digest": "d"})
                + wire.encode_frame("task", {"task_id": 1})
            )
            assert conn.recv() == ("state", {"digest": "d"})
            assert conn.recv() == ("task", {"task_id": 1})
            left.close()
            assert conn.recv() is None  # clean EOF
        finally:
            right.close()

    def test_mid_frame_eof_raises(self):
        left, right = socket.socketpair()
        try:
            conn = wire.Connection(right)
            left.sendall(wire.encode_frame("task", {"task_id": 1})[:-3])
            left.close()
            with pytest.raises(ClusterError, match="mid-frame"):
                conn.recv()
        finally:
            right.close()


class TestAuthHelpers:
    def test_mac_binds_token_role_and_transcript(self):
        mac = wire.compute_mac("secret", "worker", "c-nonce", "w-nonce", "w1")
        assert wire.verify_mac("secret", "worker", ("c-nonce", "w-nonce", "w1"), mac)
        # Any deviation — token, role, or transcript — fails the check.
        assert not wire.verify_mac("other", "worker", ("c-nonce", "w-nonce", "w1"), mac)
        assert not wire.verify_mac("secret", "coordinator", ("c-nonce", "w-nonce", "w1"), mac)
        assert not wire.verify_mac("secret", "worker", ("c-nonce", "w-nonce", "w2"), mac)
        # A peer sending a non-string MAC must not crash the check.
        assert not wire.verify_mac("secret", "worker", ("a",), None)
        assert not wire.verify_mac("secret", "worker", ("a",), 12345)

    def test_resolve_auth_token_precedence(self, monkeypatch):
        monkeypatch.delenv(wire.AUTH_TOKEN_ENV_VAR, raising=False)
        assert wire.resolve_auth_token() == ""
        monkeypatch.setenv(wire.AUTH_TOKEN_ENV_VAR, "from-env")
        assert wire.resolve_auth_token() == "from-env"
        assert wire.resolve_auth_token("explicit") == "explicit"
        assert wire.resolve_auth_token("") == ""  # explicit empty wins too

    def test_nonces_are_fresh(self):
        assert wire.new_nonce() != wire.new_nonce()

    def test_handshake_over_socketpair(self):
        """Both sides of the HMAC exchange, against a scripted
        coordinator: the worker ends up unlocked for pickle frames."""
        left, right = socket.socketpair()
        worker_conn = wire.Connection(right, allow_pickle=False)
        coord = wire.Connection(left)
        token = "s3cret"
        challenge = wire.new_nonce()

        def scripted_coordinator():
            coord.send_json(
                wire.MSG_AUTH_CHALLENGE,
                {"versions": list(wire.SUPPORTED_WIRE_VERSIONS),
                 "nonce": challenge},
            )
            kind, payload = coord.recv()
            assert kind == wire.MSG_AUTH_RESPONSE
            assert wire.verify_mac(
                token,
                "worker",
                (challenge, payload["nonce"], payload["worker_id"]),
                payload["mac"],
            )
            coord.send_json(
                wire.MSG_AUTH_OK,
                {"version": wire.WIRE_VERSION,
                 "mac": wire.compute_mac(
                     token, "coordinator", payload["nonce"], challenge)},
            )

        thread = threading.Thread(target=scripted_coordinator, daemon=True)
        thread.start()
        try:
            worker_handshake(worker_conn, token, "w-1", timeout=10.0)
            assert worker_conn.allow_pickle
        finally:
            thread.join(timeout=5)
            coord.close()
            worker_conn.close()

    def test_worker_rejects_spoofed_coordinator(self):
        """Mutual auth: a coordinator that cannot MAC the transcript is
        refused before the worker would deserialize anything from it."""
        left, right = socket.socketpair()
        worker_conn = wire.Connection(right, allow_pickle=False)
        coord = wire.Connection(left)

        def spoofer():
            coord.send_json(
                wire.MSG_AUTH_CHALLENGE,
                {"versions": list(wire.SUPPORTED_WIRE_VERSIONS),
                 "nonce": wire.new_nonce()},
            )
            coord.recv()
            coord.send_json(
                wire.MSG_AUTH_OK,
                {"version": wire.WIRE_VERSION, "mac": "forged"},
            )

        thread = threading.Thread(target=spoofer, daemon=True)
        thread.start()
        try:
            with pytest.raises(ClusterAuthError, match="mutual"):
                worker_handshake(worker_conn, "s3cret", "w-1", timeout=10.0)
            assert not worker_conn.allow_pickle
        finally:
            thread.join(timeout=5)
            coord.close()
            worker_conn.close()


class TestFaultPlan:
    def test_parse_round_trips(self):
        plan = FaultPlan.parse("die-after:3,slow:0.5")
        assert plan == FaultPlan(die_after=3, slow=0.5)
        assert FaultPlan.parse(plan.to_text()) == plan
        assert FaultPlan.parse(None) == FaultPlan()
        assert FaultPlan().to_text() is None
        full = FaultPlan(drop_after=2, duplicate_results=True)
        assert FaultPlan.parse(full.to_text()) == full
        churn = FaultPlan(disconnect_after=2, drain_after=5, slow_start=1.5)
        assert FaultPlan.parse(churn.to_text()) == churn
        assert FaultPlan.parse("disconnect-after:1") == FaultPlan(
            disconnect_after=1
        )

    def test_engagement_tasks(self):
        # A fault counted after N results needs N + 1 tasks sent: the
        # extra one is in flight when it fires.
        assert FaultPlan(die_after=2).engagement_tasks() == 3
        assert FaultPlan(drain_after=2, drop_after=4).engagement_tasks() == 5
        assert FaultPlan(slow=1.5).engagement_tasks() == 1
        assert FaultPlan(slow_start=1.5).engagement_tasks() == 0
        assert FaultPlan(duplicate_results=True).engagement_tasks() == 0
        assert FaultPlan().engagement_tasks() == 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ClusterError, match="unknown fault token"):
            FaultPlan.parse("explode")
        with pytest.raises(ClusterError, match="malformed"):
            FaultPlan.parse("die-after:soon")
        with pytest.raises(ClusterError, match="malformed"):
            FaultPlan.parse("slow-start:never")
        with pytest.raises(ClusterError, match="die_after"):
            FaultPlan(die_after=0)
        with pytest.raises(ClusterError, match="slow"):
            FaultPlan(slow=-1.0)
        with pytest.raises(ClusterError, match="drain_after"):
            FaultPlan(drain_after=0)
        with pytest.raises(ClusterError, match="disconnect_after"):
            FaultPlan(disconnect_after=-1)
        with pytest.raises(ClusterError, match="slow_start"):
            FaultPlan(slow_start=-0.1)


class TestRegistryAndValidation:
    def test_cluster_is_registered(self):
        assert {"serial", "process", "cluster"} <= set(registered_backends())
        backend = resolve_backend("cluster", n_workers=3)
        try:
            assert isinstance(backend, ClusterBackend)
            assert backend.n_workers == 3
        finally:
            backend.shutdown()

    def test_unknown_name_lists_registered(self):
        with pytest.raises(SimulationError, match="cluster"):
            resolve_backend("threads")

    def test_constructor_validation(self):
        with pytest.raises(ClusterError):
            ClusterBackend(0)
        with pytest.raises(ClusterError):
            ClusterBackend(2, window=0)
        with pytest.raises(ClusterError):
            ClusterBackend(2, heartbeat_timeout=0.0)
        with pytest.raises(ClusterError):
            ClusterBackend(2, handshake_timeout=0.0)
        with pytest.raises(ClusterError):
            ClusterBackend(2, reconnect_grace=-1.0)
        with pytest.raises(ClusterError):
            ClusterBackend(2, speculation_delay=-1.0)
        with pytest.raises(ClusterError, match="max_frame_bytes"):
            ClusterBackend(2, max_frame_bytes=1024)
        with pytest.raises(ClusterError):
            ClusterBackend(2, worker_reconnects=-1)
        with pytest.raises(ClusterError):
            ClusterBackend(2, worker_reconnect_backoff=0.0)

    def test_empty_batch_short_circuits(self):
        backend = ClusterBackend(2)
        try:
            assert backend.execute([]) == []
            assert backend.execute_shared([], {}) == []
            # No batch ran, so no fleet was ever spawned.
            assert backend.stats["batches"] == 0
        finally:
            backend.shutdown()

    def test_unpicklable_spec_fails_fast_without_spawning(self):
        backend = ClusterBackend(2)
        try:
            runner = make_runner(backend=backend)
            runner.algorithm_factory = lambda: VanillaGossip()
            with pytest.raises(SimulationError, match="AlgorithmFactory"):
                runner.run(2, max_events=10)
            assert not backend._workers and not backend._pending_procs
        finally:
            backend.shutdown()

    def test_recorder_rejected(self):
        from repro.engine.recorder import TraceRecorder

        backend = ClusterBackend(2)
        try:
            with pytest.raises(SimulationError, match="recorder"):
                make_runner(backend=backend).run(
                    2, max_events=50, recorder=TraceRecorder(10)
                )
        finally:
            backend.shutdown()


@pytest.mark.slow
class TestClusterExecution:
    def test_execute_after_shutdown_rebuilds_fleet(self):
        serial = make_runner().run(3, max_events=200)
        backend = ClusterBackend(2)
        try:
            first = make_runner(backend=backend).run(3, max_events=200)
            backend.shutdown()
            backend.shutdown()  # idempotent
            second = make_runner(backend=backend).run(3, max_events=200)
            for a, b, c in zip(serial, first, second):
                assert results_identical(a, b)
                assert results_identical(a, c)
        finally:
            backend.shutdown()

    def test_state_ships_at_most_once_per_worker_per_digest(self):
        """The cluster analogue of the pool's shipping-economy pin:
        repeated batches against the same mapping content install state
        exactly once per worker."""
        # Arming both workers with a token delay makes the coordinator
        # serve each one a task before either gets a second, so both
        # install the state whichever connects first.
        backend = ClusterBackend(2, worker_faults=["slow:0.01", "slow:0.01"])
        try:
            runner = make_runner(backend=backend)
            slim = runner.build_specs(6, shared_key="k", max_events=200)
            reference = SerialBackend().execute_shared(
                slim, {"k": runner.shared_state()}
            )
            for _ in range(3):
                # A fresh, equal-but-distinct mapping every batch: the
                # content digest must recognize it and not re-ship.
                shipped = backend.execute_shared(
                    slim, {"k": runner.shared_state()}
                )
                for a, b in zip(reference, shipped):
                    assert results_identical(a, b)
            assert backend.stats["state_installs"] == 2  # one per worker
            assert backend.stats["worker_failures"] == 0
        finally:
            backend.shutdown()

    def test_deterministic_replicate_error_propagates(self):
        """A replicate that raises is deterministic: the batch must fail
        with guidance, not retry forever across workers."""
        backend = ClusterBackend(2)
        try:
            runner = MonteCarloRunner(
                complete_graph(6),
                UnsimulatableGossip,
                [float(i) for i in range(6)],
                seed=0,
                backend=backend,
                max_batch_retries=0,
            )
            with pytest.raises(ClusterError, match="scripted failure") as info:
                runner.run(4, max_events=50)
            assert not info.value.retryable
        finally:
            backend.shutdown()

    def test_silent_worker_detected_by_heartbeat_timeout(self):
        """A worker that authenticates and accepts tasks but never
        responds (and never heartbeats) must be declared dead and its
        in-flight specs reassigned to the healthy worker."""
        backend = ClusterBackend(1, heartbeat_timeout=1.0)
        host, port = backend.address
        authed = threading.Event()

        def silent_worker():
            sock = socket.create_connection((host, port), timeout=10)
            conn = wire.Connection(sock, allow_pickle=False)
            try:
                worker_handshake(conn, "", "silent-worker", timeout=20.0)
                authed.set()
                # Swallow whatever arrives, answer nothing.
                while True:
                    frame = conn.recv(timeout=20.0)
                    if frame is None or frame is wire.TIMEOUT:
                        return
            except (ClusterError, OSError):
                return
            finally:
                conn.close()

        thread = threading.Thread(target=silent_worker, daemon=True)
        thread.start()
        try:
            serial = make_runner().run(6, max_events=200)
            results = make_runner(backend=backend).run(6, max_events=200)
            for a, b in zip(serial, results):
                assert results_identical(a, b)
            assert authed.wait(timeout=10)
            assert backend.stats["worker_failures"] >= 1
            assert backend.stats["reassigned"] >= 1
        finally:
            backend.shutdown()
            thread.join(timeout=5)

    def test_unauthenticated_peer_cannot_make_coordinator_unpickle(
        self, tmp_path
    ):
        """A stranger reaching the coordinator port sends an armed pickle
        frame: the coordinator must drop the connection without the
        payload ever reaching ``pickle.loads``, and the batch must
        complete untouched on the real worker."""
        marker = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.mkdir, (str(marker),))

        backend = ClusterBackend(1)
        host, port = backend.address
        rejected = threading.Event()

        def rogue():
            sock = socket.create_connection((host, port), timeout=10)
            try:
                sock.sendall(wire.encode_frame("task", Evil()))
                sock.settimeout(20.0)
                try:
                    while sock.recv(65536):
                        pass
                except OSError:
                    pass
                rejected.set()
            finally:
                sock.close()

        thread = threading.Thread(target=rogue, daemon=True)
        thread.start()
        try:
            serial = make_runner().run(3, max_events=200)
            results = make_runner(backend=backend).run(3, max_events=200)
            for a, b in zip(serial, results):
                assert results_identical(a, b)
            assert rejected.wait(timeout=15)
            assert not marker.exists()
            assert backend.stats["auth_rejected"] >= 1
            assert backend.stats["worker_failures"] == 0
        finally:
            backend.shutdown()
            thread.join(timeout=5)

    def test_wrong_token_worker_rejected(self):
        """A worker holding the wrong token exits 3 (rejected, no retry)
        while the correctly keyed worker completes the batch alone."""
        backend = ClusterBackend(1, spawn_workers=False, auth_token="s3cret")
        host, port = backend.address
        codes: "dict[str, int]" = {}

        def attach(name: str, token: str) -> None:
            codes[name] = run_worker(
                host,
                port,
                heartbeat_interval=0.2,
                auth_token=token,
                max_reconnects=0,
            )

        intruder = threading.Thread(
            target=attach, args=("intruder", "wrong-token"), daemon=True
        )
        honest = threading.Thread(
            target=attach, args=("honest", "s3cret"), daemon=True
        )
        intruder.start()
        honest.start()
        try:
            serial = make_runner().run(4, max_events=200)
            results = make_runner(backend=backend).run(4, max_events=200)
            for a, b in zip(serial, results):
                assert results_identical(a, b)
            intruder.join(timeout=15)
            assert codes.get("intruder") == 3
            assert backend.stats["auth_rejected"] >= 1
            assert backend.stats["worker_failures"] == 0
        finally:
            backend.shutdown()
            honest.join(timeout=10)
        assert codes.get("honest") == 0

    def test_graceful_drain_frees_a_replacement_spawn(self):
        """drain-after: the worker finishes its in-flight replicate,
        says goodbye and detaches — no failure, no reassignment cost,
        and its replacement spawn is free (not a respawn)."""
        serial = make_runner().run(10, max_events=200)
        backend = ClusterBackend(2, worker_faults=["drain-after:2", None])
        try:
            results = make_runner(backend=backend).run(10, max_events=200)
            for a, b in zip(serial, results):
                assert results_identical(a, b)
            assert backend.stats["drains"] >= 1
            assert backend.stats["worker_failures"] == 0
        finally:
            backend.shutdown()

    def test_disconnected_worker_reconnects_with_identity(self):
        """disconnect-after: a WAN flap.  The coordinator stashes the
        spawned process under its worker id for the grace window; the
        worker reconnects with backoff and resumes its identity."""
        serial = make_runner().run(12, max_events=200)
        backend = ClusterBackend(
            2,
            worker_faults=["disconnect-after:2", "slow:0.1"],
            worker_reconnect_backoff=0.05,
        )
        try:
            results = make_runner(backend=backend).run(12, max_events=200)
            for a, b in zip(serial, results):
                assert results_identical(a, b)
            assert backend.stats["reconnects"] >= 1
            assert backend.stats["worker_failures"] >= 1
        finally:
            backend.shutdown()

    def test_straggler_speculation_is_double_count_free(self):
        """Near end-of-batch, an idle worker re-executes the slow
        worker's oldest in-flight task; dedup keeps results exactly-once
        so the artifact is unchanged."""
        serial = make_runner().run(6, max_events=200)
        backend = ClusterBackend(
            2,
            worker_faults=["slow:1.5", None],
            speculation_delay=0.3,
            worker_reconnects=0,
        )
        try:
            results = make_runner(backend=backend).run(6, max_events=200)
            for a, b in zip(serial, results):
                assert results_identical(a, b)
            assert backend.stats["speculated"] >= 1
            assert backend.stats["worker_failures"] == 0
        finally:
            backend.shutdown()

    def test_spawn_workers_false_accepts_attached_worker(self):
        """An externally attached worker (the `repro worker` path, run
        in-process here) serves a coordinator that spawns nothing."""
        from repro.engine.cluster import run_worker

        backend = ClusterBackend(1, spawn_workers=False)
        host, port = backend.address
        thread = threading.Thread(
            target=run_worker,
            args=(host, port),
            kwargs={"heartbeat_interval": 0.2},
            daemon=True,
        )
        thread.start()
        try:
            serial = make_runner().run(4, max_events=200)
            attached = make_runner(backend=backend).run(4, max_events=200)
            for a, b in zip(serial, attached):
                assert results_identical(a, b)
            assert backend.stats["worker_failures"] == 0
        finally:
            backend.shutdown()
            thread.join(timeout=5)

    def test_spawn_workers_false_times_out_without_attachments(self):
        backend = ClusterBackend(
            1, spawn_workers=False, connect_timeout=0.5
        )
        try:
            with pytest.raises(ClusterError, match="no worker became ready"):
                make_runner(backend=backend).run(2, max_events=10)
        finally:
            backend.shutdown()


class TestWorkerCLI:
    """The `repro ... worker` subcommand's argument handling (the happy
    path is exercised by every spawned-worker test above)."""

    def test_malformed_connect_rejected(self, capsys):
        from repro.experiments.cli import main

        for target in ("nonsense", "localhost:notaport", "localhost:99999"):
            assert main(["worker", "--connect", target]) == 2
            assert "HOST:PORT" in capsys.readouterr().err

    def test_bad_heartbeat_interval_rejected(self, capsys):
        from repro.experiments.cli import main

        code = main(
            ["worker", "--connect", "127.0.0.1:1", "--heartbeat-interval", "0"]
        )
        assert code == 2
        assert "heartbeat-interval" in capsys.readouterr().err

    def test_bad_fault_spec_rejected(self, capsys):
        from repro.experiments.cli import main

        code = main(["worker", "--connect", "127.0.0.1:1", "--fault", "explode"])
        assert code == 2
        assert "fault token" in capsys.readouterr().err

    def test_unreachable_coordinator_reports_cleanly(self, capsys):
        from repro.experiments.cli import main

        # Port 1 on localhost refuses immediately: clean exit, no traceback.
        assert main(["worker", "--connect", "127.0.0.1:1"]) == 2
        assert "cannot reach coordinator" in capsys.readouterr().err

    def test_bad_drain_after_rejected(self, capsys):
        from repro.experiments.cli import main

        code = main(
            ["worker", "--connect", "127.0.0.1:1", "--drain-after", "0"]
        )
        assert code == 2
        assert "drain-after" in capsys.readouterr().err

    def test_bad_reconnect_knobs_rejected(self, capsys):
        from repro.experiments.cli import main

        code = main(
            ["worker", "--connect", "127.0.0.1:1", "--max-reconnects", "-1"]
        )
        assert code == 2
        assert "max-reconnects" in capsys.readouterr().err
        code = main(
            ["worker", "--connect", "127.0.0.1:1", "--reconnect-backoff", "0"]
        )
        assert code == 2
        assert "reconnect-backoff" in capsys.readouterr().err

    def test_sweep_cluster_flags_require_cluster_backend(self, capsys):
        from repro.experiments.cli import main

        code = main(
            ["sweep", "E3", "--scale", "smoke", "--auth-token", "t"]
        )
        assert code == 2
        assert "--backend cluster" in capsys.readouterr().err
        code = main(
            ["sweep", "E3", "--scale", "smoke", "--worker-fault", "slow:1"]
        )
        assert code == 2
        assert "--backend cluster" in capsys.readouterr().err
