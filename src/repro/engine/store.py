"""Persistent, content-addressed results store for sweep runs.

Every number the reproduction reports is an expensive Monte-Carlo
estimate, and :class:`~repro.engine.sweeps.SweepResult` is a
deterministic function of the sweep's *configuration identity*
(:func:`~repro.engine.sweeps.sweep_fingerprint_payload`) plus the code
that computed it.  This module turns that determinism into memory
across runs: a SQLite database keyed by the SHA-256 **fingerprint** of
``(configuration identity, code version)``, so submitting a sweep whose
fingerprint already exists is a *cache hit* that returns the stored,
byte-identical result with zero simulation work — the expensive thing
computes once, every subsequent query is a read.

**Fingerprint semantics.**  The content address covers exactly what
determines the reported bytes:

* the sweep's name, axes, base params and builder identity;
* the root seed and the *logical* replicate budget;
* the code version (git commit when available — results may legitimately
  change between commits, so a new commit is a cache miss, never a
  stale read).

It deliberately excludes scheduling — backend, worker count, round
size, kernel, shared-state shipping — which the determinism suite
proves cannot change a byte of the result.

**Byte identity.**  Results are stored as the exact canonical JSON text
(:func:`canonical_result_text`, the same serialization
:meth:`SweepResult.save` writes), so a cache hit exported to disk is
``cmp``-identical to the artifact the original run saved.

**Concurrency.**  Writers race safely: run rows are claimed with
``INSERT OR IGNORE`` on the unique fingerprint inside SQLite's own
locking (WAL journal + busy timeout), and finishing is an idempotent
UPDATE — two processes computing the same fingerprint both succeed and
store identical bytes.  A corrupt database file raises
:class:`~repro.errors.StoreError` with recovery guidance instead of a
bare ``sqlite3`` traceback (the store is a pure cache of recomputable
results, so deleting it is always safe).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import sqlite3
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.engine.backends import ExecutionBackend
from repro.engine.sweeps import (
    ReplicateBudget,
    SweepResult,
    SweepRunner,
    SweepSpec,
    sweep_fingerprint_payload,
)
from repro.errors import StoreError
from repro.util.serialization import to_jsonable

#: Schema tag stamped into the database and every envelope; bump on
#: incompatible schema changes (the store refuses other versions).
STORE_SCHEMA = "repro-store/v1"

#: Environment variable naming the default store database (the CLI's
#: ``--store`` / ``--db`` flags override it).
STORE_ENV_VAR = "REPRO_STORE"

#: Run row lifecycle.  A sweep claims its row as ``queued`` and flips it
#: to ``running`` before computing, so an in-flight sweep shows in
#: ``store list`` and is spared by ``store gc --keep-incomplete``; dedup
#: treats anything non-``done`` as "not yet a hit".
RUN_STATUSES = ("queued", "running", "done", "failed")


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


_CODE_VERSION_CACHE: "dict[str, str | None]" = {}


def current_code_version() -> "str | None":
    """The git commit the library is running from (best effort).

    ``REPRO_CODE_VERSION`` overrides (useful for containers without git
    metadata); otherwise ``git rev-parse HEAD`` relative to the package
    directory, memoized per process.  ``None`` when neither works —
    fingerprints then dedup on configuration alone.
    """
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if "git" not in _CODE_VERSION_CACHE:
        commit: "str | None" = None
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=Path(__file__).resolve().parent,
                capture_output=True,
                text=True,
                timeout=5,
            )
            if out.returncode == 0 and out.stdout.strip():
                commit = out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = None
        _CODE_VERSION_CACHE["git"] = commit
    return _CODE_VERSION_CACHE["git"]


def config_fingerprint(
    payload: "Mapping[str, Any]", *, code_version: "str | None" = None
) -> str:
    """SHA-256 content address of a configuration payload.

    The digest is taken over compact, key-sorted canonical JSON of
    ``{"config": payload, "code_version": code_version}`` — equal
    payloads hash identically regardless of dict ordering or numpy
    scalar types (:func:`~repro.util.serialization.to_jsonable`
    normalizes them first).
    """
    document = {
        "config": to_jsonable(dict(payload)),
        "code_version": code_version,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def sweep_fingerprint(
    spec: SweepSpec,
    *,
    seed: "int | np.random.SeedSequence | None" = None,
    budget: "ReplicateBudget | None" = None,
    code_version: "str | None | object" = ...,
) -> str:
    """The store's content address for one sweep submission.

    Hashes :func:`~repro.engine.sweeps.sweep_fingerprint_payload` (the
    same identity checkpoint resume compares) together with the code
    version; ``budget=None`` normalizes to the runner's default the same
    way :class:`SweepRunner` does, so fingerprinting and running can
    never disagree.  ``code_version`` defaults to
    :func:`current_code_version`; pass ``None`` explicitly to address on
    configuration alone.
    """
    if budget is None:
        budget = ReplicateBudget.fixed(8)
    if code_version is ...:
        code_version = current_code_version()
    return config_fingerprint(
        sweep_fingerprint_payload(spec, seed, budget),
        code_version=code_version,  # type: ignore[arg-type]
    )


def result_fingerprint(result: SweepResult) -> str:
    """A configuration digest computable from a bare :class:`SweepResult`.

    Artifact filenames (:func:`~repro.experiments.reporting
    .save_sweep_result`) are disambiguated with this: it covers the
    result's identity fields (name, axes, seed, logical budget) but —
    unlike :func:`sweep_fingerprint` — not the builder/base_params (a
    result does not carry them) and not the code version (the same
    configuration should land in the same file across commits).
    """
    payload = result.to_dict()
    del payload["points"]
    return config_fingerprint(payload, code_version=None)


def canonical_result_text(result: SweepResult) -> str:
    """The canonical JSON text of a result — byte-identical to
    :meth:`SweepResult.save` output for the same result."""
    text = json.dumps(to_jsonable(result.to_dict()), indent=2, sort_keys=True)
    return text + "\n"


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoredRun:
    """One run row (result text is fetched separately — it can be MBs)."""

    run_id: str
    fingerprint: str
    sweep_name: str
    status: str
    created_utc: str
    updated_utc: str
    git_commit: "str | None"
    python: str
    platform: str
    error: "str | None"
    n_points: "int | None"
    total_replicates: "int | None"

    def to_dict(self) -> dict:
        """Plain-dict view (CLI output)."""
        return {
            "run_id": self.run_id,
            "fingerprint": self.fingerprint,
            "sweep_name": self.sweep_name,
            "status": self.status,
            "created_utc": self.created_utc,
            "updated_utc": self.updated_utc,
            "git_commit": self.git_commit,
            "python": self.python,
            "platform": self.platform,
            "error": self.error,
            "n_points": self.n_points,
            "total_replicates": self.total_replicates,
        }


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


_CREATE_TABLES = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS runs (
        run_id TEXT PRIMARY KEY,
        fingerprint TEXT NOT NULL UNIQUE,
        sweep_name TEXT NOT NULL,
        status TEXT NOT NULL,
        created_utc TEXT NOT NULL,
        updated_utc TEXT NOT NULL,
        git_commit TEXT,
        python TEXT NOT NULL,
        platform TEXT NOT NULL,
        error TEXT,
        n_points INTEGER,
        total_replicates INTEGER,
        result_json TEXT
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS runs_by_sweep
        ON runs (sweep_name, created_utc)
    """,
)

_RUN_COLUMNS = (
    "run_id, fingerprint, sweep_name, status, created_utc, updated_utc, "
    "git_commit, python, platform, error, n_points, total_replicates"
)


class ResultsStore:
    """SQLite-backed run database with content-addressed dedup.

    Parameters
    ----------
    path:
        Database file (created, with parents, on first use).
    timeout:
        Seconds a connection waits on SQLite's write lock before giving
        up — generous by default so racing writers queue instead of
        erroring.
    """

    def __init__(self, path: "str | Path", *, timeout: float = 30.0) -> None:
        self.path = Path(path)
        self.timeout = float(timeout)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._connect() as conn:
            for statement in _CREATE_TABLES:
                conn.execute(statement)
            tag_query = "SELECT value FROM meta WHERE key = 'schema'"
            row = conn.execute(tag_query).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                    (STORE_SCHEMA,),
                )
            elif row[0] != STORE_SCHEMA:
                raise StoreError(
                    f"results store {self.path} has schema {row[0]!r} but "
                    f"this build speaks {STORE_SCHEMA!r}; point it at a "
                    "fresh path (results are recomputable — deleting the "
                    "old file is safe)"
                )

    # -- connections ---------------------------------------------------

    @contextlib.contextmanager
    def _connect(self) -> "Iterator[sqlite3.Connection]":
        """One transaction: commit on success, rollback on error.

        Database-level failures (a truncated or overwritten file, a
        non-database file at the path) surface as :class:`StoreError`
        with recovery guidance.
        """
        try:
            conn = sqlite3.connect(self.path, timeout=self.timeout)
        except sqlite3.Error as exc:  # pragma: no cover - open rarely fails
            message = f"cannot open results store {self.path} ({exc})"
            raise StoreError(message) from exc
        try:
            # WAL lets readers proceed under a writer; best effort (some
            # filesystems refuse), and the busy timeout still protects
            # the rollback-journal fallback.
            with contextlib.suppress(sqlite3.Error):
                conn.execute("PRAGMA journal_mode=WAL")
            yield conn
            conn.commit()
        except sqlite3.DatabaseError as exc:
            raise StoreError(
                f"results store {self.path} is corrupt or not a store "
                f"database ({exc}); every stored result is recomputable, "
                "so delete the file (and any -wal/-shm siblings) and "
                "re-run the sweeps to rebuild it"
            ) from exc
        finally:
            conn.close()

    @staticmethod
    def _row_to_run(row: "tuple") -> StoredRun:
        return StoredRun(*row)

    # -- writes --------------------------------------------------------

    def begin_run(self, fingerprint: str, sweep_name: str) -> "tuple[StoredRun, bool]":
        """Claim (or adopt) the run row for ``fingerprint``.

        Returns ``(row, created)``.  ``INSERT OR IGNORE`` on the unique
        fingerprint makes racing claimants safe: exactly one creates the
        row, everyone sees the same ``run_id``.  A pre-existing
        non-``done`` row (a crashed or in-flight computation) is adopted
        rather than treated as a hit — recomputing is always safe, and
        :meth:`finish` is idempotent.
        """
        run_id = f"{sweep_name.lower()}-{fingerprint[:12]}"
        now = _utc_now()
        with self._connect() as conn:
            conn.execute(
                """
                INSERT OR IGNORE INTO runs
                    (run_id, fingerprint, sweep_name, status,
                     created_utc, updated_utc, git_commit, python, platform)
                VALUES (?, ?, ?, 'queued', ?, ?, ?, ?, ?)
                """,
                (
                    run_id,
                    fingerprint,
                    sweep_name,
                    now,
                    now,
                    current_code_version(),
                    platform.python_version(),
                    platform.platform(),
                ),
            )
            created = conn.execute("SELECT changes()").fetchone()[0] > 0
            row = conn.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        return self._row_to_run(row), created

    def _update_status(
        self, run_id: str, status: str, *, error: "str | None" = None
    ) -> None:
        with self._connect() as conn:
            cursor = conn.execute(
                "UPDATE runs SET status = ?, error = ?, updated_utc = ? "
                "WHERE run_id = ?",
                (status, error, _utc_now(), run_id),
            )
            if cursor.rowcount == 0:
                raise StoreError(
                    f"no run {run_id!r} in store {self.path}; "
                    "list runs with the `store list` subcommand"
                )

    def mark_running(self, run_id: str) -> None:
        """Flip a queued row to ``running`` (``store list`` visibility)."""
        self._update_status(run_id, "running")

    def fail(self, run_id: str, message: str) -> None:
        """Record a failed computation (the row stays for postmortems;
        ``gc`` reaps it, and a later resubmission recomputes)."""
        self._update_status(run_id, "failed", error=message)

    def finish(self, run_id: str, result: SweepResult) -> StoredRun:
        """Store the finished result's canonical bytes and mark ``done``.

        Idempotent: racing writers of the same fingerprint computed
        byte-identical text (determinism), so last-write-wins is
        harmless.
        """
        text = canonical_result_text(result)
        with self._connect() as conn:
            cursor = conn.execute(
                """
                UPDATE runs SET status = 'done', error = NULL,
                    result_json = ?, n_points = ?, total_replicates = ?,
                    updated_utc = ?
                WHERE run_id = ?
                """,
                (
                    text,
                    result.n_points,
                    result.total_replicates,
                    _utc_now(),
                    run_id,
                ),
            )
            if cursor.rowcount == 0:
                raise StoreError(
                    f"no run {run_id!r} in store {self.path}; "
                    "claim it with begin_run() before finish()"
                )
            row = conn.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs WHERE run_id = ?",
                (run_id,),
            ).fetchone()
        return self._row_to_run(row)

    # -- reads ---------------------------------------------------------

    def lookup(self, fingerprint: str) -> "StoredRun | None":
        """The run row for a fingerprint, or ``None``."""
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
        return self._row_to_run(row) if row is not None else None

    def get(self, run_id: str) -> StoredRun:
        """The run row for ``run_id`` (:class:`StoreError` if absent)."""
        with self._connect() as conn:
            row = conn.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs WHERE run_id = ?",
                (run_id,),
            ).fetchone()
        if row is None:
            raise StoreError(
                f"no run {run_id!r} in store {self.path}; "
                "list runs with the `store list` subcommand"
            )
        return self._row_to_run(row)

    def result_text(self, run_id: str) -> str:
        """The stored canonical JSON text (exact bytes) of a done run."""
        with self._connect() as conn:
            row = conn.execute(
                "SELECT status, result_json FROM runs WHERE run_id = ?",
                (run_id,),
            ).fetchone()
        if row is None:
            raise StoreError(
                f"no run {run_id!r} in store {self.path}; "
                "list runs with the `store list` subcommand"
            )
        status, text = row
        if status != "done" or text is None:
            raise StoreError(
                f"run {run_id!r} has no stored result (status: {status}); "
                "poll until it is done, or resubmit the sweep"
            )
        return text

    def load_result(self, run_id: str) -> SweepResult:
        """The stored result, parsed back into a :class:`SweepResult`."""
        return SweepResult.from_dict(json.loads(self.result_text(run_id)))

    def envelope(self, run_id: str) -> dict:
        """The run's provenance envelope plus full result record.

        The same shape as the ``repro-bench/v1`` benchmark artifacts
        (schema / run provenance / record), with the store schema tag
        and the run row as provenance — so stored results and committed
        benchmark artifacts read with one convention.
        """
        run = self.get(run_id)
        record = None
        if run.status == "done":
            record = json.loads(self.result_text(run_id))
        return {
            "schema": STORE_SCHEMA,
            "run": run.to_dict(),
            "record": record,
        }

    def runs(
        self,
        *,
        sweep_name: "str | None" = None,
        status: "str | None" = None,
    ) -> "list[StoredRun]":
        """Run rows, newest first, optionally filtered."""
        clauses, params = [], []
        if sweep_name is not None:
            clauses.append("sweep_name = ?")
            params.append(sweep_name)
        if status is not None:
            if status not in RUN_STATUSES:
                raise StoreError(
                    f"unknown status {status!r}; expected one of "
                    f"{RUN_STATUSES}"
                )
            clauses.append("status = ?")
            params.append(status)
        where = f"WHERE {' AND '.join(clauses)} " if clauses else ""
        with self._connect() as conn:
            rows = conn.execute(
                f"SELECT {_RUN_COLUMNS} FROM runs {where}"
                "ORDER BY created_utc DESC, run_id DESC",
                params,
            ).fetchall()
        return [self._row_to_run(row) for row in rows]

    def results_for_sweep(
        self, sweep_name: str
    ) -> "list[tuple[StoredRun, SweepResult]]":
        """Done runs of one sweep, newest first, with parsed results.

        The typed read path report/claims consumers use: each pair is
        the provenance row plus its :class:`SweepResult`, so callers
        never touch raw JSON text or run-id plumbing.
        """
        return [
            (run, self.load_result(run.run_id))
            for run in self.runs(sweep_name=sweep_name, status="done")
        ]

    def latest_result(self, sweep_name: str) -> "tuple[StoredRun, SweepResult]":
        """The newest done run of one sweep, with its parsed result.

        :class:`StoreError` with a seeding hint when the sweep has no
        completed runs in this store.
        """
        runs = self.runs(sweep_name=sweep_name, status="done")
        if not runs:
            raise StoreError(
                f"no completed runs of sweep {sweep_name!r} in store "
                f"{self.path}; seed it with: repro-experiments sweep "
                f"{sweep_name} --store {self.path}"
            )
        return runs[0], self.load_result(runs[0].run_id)

    # -- maintenance ---------------------------------------------------

    def gc(
        self,
        *,
        older_than_days: "float | None" = None,
        include_incomplete: bool = True,
    ) -> "list[str]":
        """Reap dead rows; returns the removed run ids.

        Always removes ``failed`` rows; ``include_incomplete`` also
        removes ``queued``/``running`` leftovers (safe only when no
        sweep is mid-flight against this store);
        ``older_than_days`` additionally expires ``done`` rows created
        before the cutoff.  The file is compacted afterwards.
        """
        doomed_statuses = ["failed"]
        if include_incomplete:
            doomed_statuses += ["queued", "running"]
        placeholders = ",".join("?" for _ in doomed_statuses)
        with self._connect() as conn:
            doomed = [
                row[0]
                for row in conn.execute(
                    f"SELECT run_id FROM runs WHERE status IN ({placeholders})",
                    doomed_statuses,
                ).fetchall()
            ]
            if older_than_days is not None:
                cutoff = time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ",
                    time.gmtime(time.time() - older_than_days * 86400.0),
                )
                doomed += [
                    row[0]
                    for row in conn.execute(
                        "SELECT run_id FROM runs WHERE status = 'done' "
                        "AND created_utc < ?",
                        (cutoff,),
                    ).fetchall()
                ]
            for run_id in doomed:
                conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
        if doomed:
            # VACUUM cannot run inside the transaction above.
            with self._connect() as conn:
                conn.execute("VACUUM")
        return doomed

    def export(self, run_id: str, path: "str | Path") -> Path:
        """Write a done run's stored bytes to ``path`` (atomically).

        The output is ``cmp``-identical to the artifact the original
        run saved — the byte-identity contract the CI store-smoke job
        asserts.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        text = self.result_text(run_id)
        tmp = target.with_name(f".{target.name}.tmp-{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return target


# ----------------------------------------------------------------------
# cached execution
# ----------------------------------------------------------------------


@dataclass
class StoreOutcome:
    """What :func:`run_sweep_cached` did: the result plus cache telemetry."""

    result: SweepResult
    run_id: str
    fingerprint: str
    cache_hit: bool
    #: Scheduler telemetry from the miss path (empty dict on a hit —
    #: zero rounds, zero replicates: nothing simulated).
    stats: "dict[str, int]"


def run_sweep_cached(
    spec: SweepSpec,
    *,
    store: ResultsStore,
    seed: "int | np.random.SeedSequence | None" = None,
    budget: "ReplicateBudget | None" = None,
    backend: "ExecutionBackend | str | None" = None,
    n_workers: "int | None" = None,
    checkpoint_path: "str | Path | None" = None,
    share_state: bool = True,
    kernel: "str | None" = None,
    code_version: "str | None | object" = ...,
) -> StoreOutcome:
    """Run a sweep through the store: hit = read, miss = compute + record.

    On a hit the stored result is returned without constructing a
    runner or touching any backend — zero replicates simulated, by
    construction (the unit suite pins this with a backend that counts
    executions).  On a miss the sweep runs exactly as
    :func:`~repro.engine.sweeps.run_sweep` would, then its canonical
    bytes are recorded under the fingerprint; a failure marks the row
    ``failed`` and re-raises.
    """
    if budget is None:
        budget = ReplicateBudget.fixed(8)
    fingerprint = sweep_fingerprint(
        spec, seed=seed, budget=budget, code_version=code_version
    )
    cached = store.lookup(fingerprint)
    if cached is not None and cached.status == "done":
        return StoreOutcome(
            result=store.load_result(cached.run_id),
            run_id=cached.run_id,
            fingerprint=fingerprint,
            cache_hit=True,
            stats={},
        )
    claim, _created = store.begin_run(fingerprint, spec.name)
    store.mark_running(claim.run_id)
    runner = SweepRunner(
        spec,
        seed=seed,
        budget=budget,
        backend=backend,
        n_workers=n_workers,
        checkpoint_path=checkpoint_path,
        share_state=share_state,
        kernel=kernel,
    )
    try:
        result = runner.run()
    except Exception as exc:
        with contextlib.suppress(StoreError):
            store.fail(claim.run_id, f"{type(exc).__name__}: {exc}")
        raise
    store.finish(claim.run_id, result)
    return StoreOutcome(
        result=result,
        run_id=claim.run_id,
        fingerprint=fingerprint,
        cache_hit=False,
        stats=dict(runner.stats),
    )
