"""Unit tests for the persistent results store.

The store's contract has three legs, and each gets pinned here:

1. **Addressing** — a run is keyed by the content fingerprint of its
   *logical* configuration plus the code version.  Anything that can
   change the reported numbers (axes, seed, budget targets, commit)
   changes the address; anything the determinism suite proves *cannot*
   (backend, worker count, round size) does not.
2. **Dedup** — resubmitting an identical configuration is a cache hit
   that performs zero simulation work, asserted with a backend that
   counts executions.
3. **Byte identity** — the stored text, `export`, and the artifact
   writer all produce ``cmp``-identical bytes.
"""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.algorithms.vanilla import VanillaGossip
from repro.engine.backends import (
    ExecutionBackend,
    execute_replicate,
    shutdown_shared_backends,
)
from repro.engine.store import (
    STORE_SCHEMA,
    ResultsStore,
    canonical_result_text,
    config_fingerprint,
    current_code_version,
    result_fingerprint,
    run_sweep_cached,
    sweep_fingerprint,
)
from repro.engine.sweeps import (
    PointConfig,
    ReplicateBudget,
    SweepAxis,
    SweepSpec,
    run_sweep,
)
from repro.errors import StoreError
from repro.experiments.reporting import save_sweep_result
from repro.graphs.topologies import complete_graph


@pytest.fixture(autouse=True)
def _release_shared_pools():
    yield
    shutdown_shared_backends()


def build_complete_point(*, n: int) -> PointConfig:
    return PointConfig(
        graph=complete_graph(int(n)),
        algorithm_factory=VanillaGossip,
        initial_values=[float(i) for i in range(int(n))],
        max_time=50.0,
        max_events=100_000,
    )


def tiny_spec(name: str = "TINY", values=(6, 8)) -> SweepSpec:
    return SweepSpec(
        name=name,
        axes=(SweepAxis("n", tuple(values)),),
        builder=build_complete_point,
    )


class CountingBackend(ExecutionBackend):
    """Serial execution that counts how many replicates it ran."""

    name = "counting"

    def __init__(self) -> None:
        self.executed = 0

    def execute(self, specs):
        self.executed += len(specs)
        return [execute_replicate(spec) for spec in specs]


class TestFingerprints:
    def test_deterministic_and_order_insensitive(self):
        spec = tiny_spec()
        budget = ReplicateBudget.fixed(3)
        a = sweep_fingerprint(spec, seed=7, budget=budget, code_version="c1")
        b = sweep_fingerprint(spec, seed=7, budget=budget, code_version="c1")
        assert a == b
        assert config_fingerprint({"x": 1, "y": 2}) == config_fingerprint(
            {"y": 2, "x": 1}
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s, sd, b, cv: (tiny_spec(values=(6, 10)), sd, b, cv),
            lambda s, sd, b, cv: (tiny_spec(name="OTHER"), sd, b, cv),
            lambda s, sd, b, cv: (s, sd + 1, b, cv),
            lambda s, sd, b, cv: (s, sd, ReplicateBudget.fixed(4), cv),
            lambda s, sd, b, cv: (s, sd, b, "c2"),
        ],
        ids=["axis-values", "sweep-name", "seed", "budget", "code-version"],
    )
    def test_any_logical_change_changes_the_address(self, mutate):
        spec, budget = tiny_spec(), ReplicateBudget.fixed(3)
        base = sweep_fingerprint(spec, seed=7, budget=budget, code_version="c1")
        spec2, seed2, budget2, cv2 = mutate(spec, 7, budget, "c1")
        assert (
            sweep_fingerprint(spec2, seed=seed2, budget=budget2, code_version=cv2)
            != base
        )

    def test_scheduling_knobs_do_not_change_the_address(self):
        """Round size is wall-clock scheduling, proven result-neutral by
        the sweep determinism suite — so it must not split the cache."""
        spec = tiny_spec()
        small = ReplicateBudget.adaptive(
            target_ci=0.5, min_replicates=2, max_replicates=8, round_size=2
        )
        large = ReplicateBudget.adaptive(
            target_ci=0.5, min_replicates=2, max_replicates=8, round_size=64
        )
        assert sweep_fingerprint(
            spec, seed=1, budget=small, code_version="c"
        ) == sweep_fingerprint(spec, seed=1, budget=large, code_version="c")

    def test_result_fingerprint_ignores_points_and_code(self):
        spec = tiny_spec()
        budget = ReplicateBudget.fixed(2)
        result = run_sweep(spec, seed=3, budget=budget)
        again = run_sweep(spec, seed=3, budget=budget)
        assert result_fingerprint(result) == result_fingerprint(again)
        other_seed = run_sweep(spec, seed=4, budget=budget)
        assert result_fingerprint(result) != result_fingerprint(other_seed)

    def test_current_code_version_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-version")
        assert current_code_version() == "pinned-version"


class TestDedupCache:
    def test_hit_is_byte_identical_and_does_zero_work(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        spec = tiny_spec()
        budget = ReplicateBudget.fixed(2)
        first_backend = CountingBackend()
        miss = run_sweep_cached(
            spec, store=store, seed=5, budget=budget,
            backend=first_backend, code_version="c1",
        )
        assert not miss.cache_hit
        assert first_backend.executed > 0
        assert miss.stats["rounds"] >= 1

        second_backend = CountingBackend()
        hit = run_sweep_cached(
            spec, store=store, seed=5, budget=budget,
            backend=second_backend, code_version="c1",
        )
        assert hit.cache_hit
        assert hit.run_id == miss.run_id
        assert second_backend.executed == 0, "cache hit must simulate nothing"
        assert hit.stats == {}
        assert canonical_result_text(hit.result) == canonical_result_text(
            miss.result
        )

    def test_changed_config_or_code_version_misses(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        budget = ReplicateBudget.fixed(2)
        run_sweep_cached(
            tiny_spec(), store=store, seed=5, budget=budget, code_version="c1"
        )
        other_axis = run_sweep_cached(
            tiny_spec(values=(6, 10)), store=store, seed=5, budget=budget,
            code_version="c1",
        )
        assert not other_axis.cache_hit
        other_code = run_sweep_cached(
            tiny_spec(), store=store, seed=5, budget=budget, code_version="c2"
        )
        assert not other_code.cache_hit
        assert len(store.runs()) == 3

    def test_failed_run_is_recorded_and_reraised(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")

        def explode(*, n: int) -> PointConfig:
            raise RuntimeError("boom")

        spec = SweepSpec(
            name="BOOM", axes=(SweepAxis("n", (4,)),), builder=explode
        )
        with pytest.raises(RuntimeError, match="boom"):
            run_sweep_cached(
                spec, store=store, seed=1,
                budget=ReplicateBudget.fixed(1), code_version="c",
            )
        (run,) = store.runs()
        assert run.status == "failed"
        assert "boom" in run.error
        with pytest.raises(StoreError, match="no stored result"):
            store.result_text(run.run_id)

    def test_failed_row_does_not_satisfy_lookups(self, tmp_path):
        """A resubmission after a failure computes again — the cache
        only ever replays ``done`` rows."""
        store = ResultsStore(tmp_path / "store.sqlite")
        spec = tiny_spec()
        fingerprint = sweep_fingerprint(
            spec, seed=5, budget=ReplicateBudget.fixed(1), code_version="c"
        )
        claim, _ = store.begin_run(fingerprint, spec.name)
        store.fail(claim.run_id, "worker lost")
        backend = CountingBackend()
        outcome = run_sweep_cached(
            spec, store=store, seed=5, budget=ReplicateBudget.fixed(1),
            backend=backend, code_version="c",
        )
        assert not outcome.cache_hit
        assert outcome.run_id == claim.run_id
        assert backend.executed > 0
        assert store.get(claim.run_id).status == "done"


class TestStoreLifecycle:
    def test_round_trip_and_envelope(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        spec = tiny_spec()
        result = run_sweep(spec, seed=2, budget=ReplicateBudget.fixed(2))
        fingerprint = sweep_fingerprint(
            spec, seed=2, budget=ReplicateBudget.fixed(2), code_version="c"
        )
        run, created = store.begin_run(fingerprint, spec.name)
        assert created and run.status == "queued"
        assert run.run_id == f"tiny-{fingerprint[:12]}"
        store.mark_running(run.run_id)
        assert store.get(run.run_id).status == "running"
        done = store.finish(run.run_id, result)
        assert done.status == "done"
        assert done.n_points == result.n_points
        assert done.total_replicates == result.total_replicates

        loaded = store.load_result(run.run_id)
        assert canonical_result_text(loaded) == canonical_result_text(result)
        envelope = store.envelope(run.run_id)
        assert envelope["schema"] == STORE_SCHEMA
        assert envelope["run"]["run_id"] == run.run_id
        assert envelope["record"]["sweep_name"] == spec.name

    def test_unknown_run_id_guides_to_listing(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        with pytest.raises(StoreError, match="store list"):
            store.get("nope-000000000000")

    def test_export_matches_artifact_writer_bytes(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        spec = tiny_spec()
        outcome = run_sweep_cached(
            spec, store=store, seed=9, budget=ReplicateBudget.fixed(2),
            code_version="c",
        )
        exported = store.export(outcome.run_id, tmp_path / "export.json")
        saved = outcome.result.save(tmp_path / "direct.json")
        assert exported.read_bytes() == saved.read_bytes()
        assert exported.read_text() == canonical_result_text(outcome.result)

    def test_concurrent_claims_yield_one_creator(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        fingerprint = config_fingerprint({"race": True})
        results = []

        def claim():
            results.append(store.begin_run(fingerprint, "RACE"))

        threads = [threading.Thread(target=claim) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(created for _, created in results) == 1
        assert len({run.run_id for run, _ in results}) == 1
        assert len(store.runs()) == 1

    def test_gc_reaps_dead_rows_and_honours_filters(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        spec = tiny_spec()
        done = run_sweep_cached(
            spec, store=store, seed=1, budget=ReplicateBudget.fixed(1),
            code_version="c",
        )
        queued, _ = store.begin_run(config_fingerprint({"q": 1}), "Q")
        failed, _ = store.begin_run(config_fingerprint({"f": 1}), "F")
        store.fail(failed.run_id, "worker lost")

        kept = store.gc(include_incomplete=False)
        assert kept == [failed.run_id]
        assert {r.run_id for r in store.runs()} == {done.run_id, queued.run_id}

        removed = store.gc()
        assert removed == [queued.run_id]
        # Expiring with a negative cutoff ages out even fresh done rows.
        expired = store.gc(older_than_days=-1.0)
        assert expired == [done.run_id]
        assert store.runs() == []

    def test_corrupt_database_error_carries_recovery_guidance(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not a sqlite database")
        with pytest.raises(StoreError, match="delete"):
            ResultsStore(path).runs()

    def test_foreign_schema_tag_is_refused(self, tmp_path):
        path = tmp_path / "store.sqlite"
        ResultsStore(path)
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = 'repro-store/v999' WHERE key = 'schema'"
            )
        with pytest.raises(StoreError, match="repro-store/v999"):
            ResultsStore(path)

    def test_status_filter_is_validated(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        with pytest.raises(StoreError, match="status"):
            store.runs(status="sideways")


class TestSaveSweepResult:
    def test_distinct_configs_no_longer_overwrite(self, tmp_path):
        """The silent-overwrite bug: two sweeps of the same id with
        different grids used to land on one filename, last writer wins.
        Now each configuration gets its own file and the bare name is an
        alias for the latest save (what the CI ``cmp`` jobs read)."""
        budget = ReplicateBudget.fixed(1)
        first = run_sweep(tiny_spec(values=(6,)), seed=1, budget=budget)
        second = run_sweep(tiny_spec(values=(8,)), seed=1, budget=budget)
        path_a = save_sweep_result(first, tmp_path)
        path_b = save_sweep_result(second, tmp_path)
        assert path_a != path_b
        assert path_a.exists() and path_b.exists()
        alias = tmp_path / "sweep_tiny.json"
        assert alias.exists()
        assert alias.read_bytes() == path_b.read_bytes()
        # Saving the first again points the alias back, files intact.
        save_sweep_result(first, tmp_path)
        assert alias.read_bytes() == path_a.read_bytes()
        assert path_b.read_bytes() == second.save(tmp_path / "check.json").read_bytes()

    def test_explicit_fingerprint_names_the_artifact(self, tmp_path):
        result = run_sweep(
            tiny_spec(values=(6,)), seed=1, budget=ReplicateBudget.fixed(1)
        )
        path = save_sweep_result(result, tmp_path, fingerprint="a" * 64)
        assert path.name == f"sweep_tiny_{'a' * 12}.json"

    def test_same_config_same_primary_path(self, tmp_path):
        budget = ReplicateBudget.fixed(1)
        result = run_sweep(tiny_spec(values=(6,)), seed=1, budget=budget)
        again = run_sweep(tiny_spec(values=(6,)), seed=1, budget=budget)
        assert save_sweep_result(result, tmp_path) == save_sweep_result(
            again, tmp_path
        )


class TestStoreCli:
    def _seed_store(self, tmp_path):
        from repro.experiments.cli import main

        db = tmp_path / "store.sqlite"
        store = ResultsStore(db)
        outcome = run_sweep_cached(
            tiny_spec(), store=store, seed=5,
            budget=ReplicateBudget.fixed(1), code_version="c1",
        )
        return main, db, outcome

    def test_list_show_export_gc(self, tmp_path, capsys):
        main, db, outcome = self._seed_store(tmp_path)
        assert main(["store", "--db", str(db), "list"]) == 0
        listing = capsys.readouterr().out
        assert outcome.run_id in listing and "done" in listing

        assert main(["store", "--db", str(db), "show", outcome.run_id]) == 0
        shown = capsys.readouterr().out
        assert outcome.fingerprint in shown
        assert "sweep TINY" in shown

        out = tmp_path / "export.json"
        assert main(
            ["store", "--db", str(db), "export", outcome.run_id,
             "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["sweep_name"] == "TINY"

        assert main(["store", "--db", str(db), "gc"]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_env_var_supplies_the_database(self, tmp_path, capsys, monkeypatch):
        main, db, outcome = self._seed_store(tmp_path)
        monkeypatch.setenv("REPRO_STORE", str(db))
        assert main(["store", "list"]) == 0
        assert outcome.run_id in capsys.readouterr().out

    def test_missing_database_is_a_clean_error(self, tmp_path, capsys,
                                               monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["store", "list"]) == 2
        assert "REPRO_STORE" in capsys.readouterr().err
        # A mistyped path is refused, not created as an empty store.
        typo = tmp_path / "typo.sqlite"
        for action in (["list"], ["show", "x"], ["gc"],
                       ["export", "x", "--out", str(tmp_path / "x.json")]):
            assert main(["store", "--db", str(typo), *action]) == 2
            err = capsys.readouterr().err
            assert str(typo) in err and "REPRO_STORE" in err
            assert not typo.exists()

    def test_unknown_run_id_exits_two(self, tmp_path, capsys):
        main, db, _ = self._seed_store(tmp_path)
        assert main(["store", "--db", str(db), "show", "missing-ffffffffffff"]) == 2
        assert "store list" in capsys.readouterr().err


class TestStoreCliSweep:
    def test_second_cli_run_is_a_cache_hit_with_identical_artifacts(
        self, tmp_path, capsys
    ):
        from repro.experiments.cli import main

        db = tmp_path / "store.sqlite"
        out_first = tmp_path / "first"
        out_second = tmp_path / "second"
        argv = [
            "sweep", "E3", "--scale", "smoke",
            "--axis", "n=12", "--axis", "algorithm=vanilla",
            "--replicates", "2", "--store", str(db),
        ]
        assert main(argv + ["--out", str(out_first)]) == 0
        first = capsys.readouterr().out
        assert "store: recorded run" in first

        assert main(argv + ["--out", str(out_second)]) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "zero simulation work" in second

        (artifact_a,) = sorted(out_first.glob("sweep_e3_*.json"))
        (artifact_b,) = sorted(out_second.glob("sweep_e3_*.json"))
        assert artifact_a.name == artifact_b.name
        assert artifact_a.read_bytes() == artifact_b.read_bytes()


class TestTypedQueries:
    """The read-side API the report/claims pipeline consumes:
    ``results_for_sweep`` (query-by-experiment) and ``latest_result``."""

    def _seed(self, store, *, names=("TINY",), seeds=(5,)):
        outcomes = []
        for name in names:
            for seed in seeds:
                outcomes.append(
                    run_sweep_cached(
                        tiny_spec(name=name), store=store, seed=seed,
                        budget=ReplicateBudget.fixed(1), code_version="c",
                    )
                )
        return outcomes

    def test_results_for_sweep_returns_done_rows_with_results(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        self._seed(store, names=("TINY", "OTHER"), seeds=(5, 6))
        rows = store.results_for_sweep("TINY")
        assert len(rows) == 2
        for run, result in rows:
            assert run.status == "done"
            assert run.sweep_name == "TINY"
            assert result.sweep_name == "TINY"
        assert {result.seed for _, result in rows} == {5, 6}

    def test_results_for_sweep_skips_unfinished_and_failed_rows(self, tmp_path):
        store = ResultsStore(tmp_path / "store.sqlite")
        (done,) = self._seed(store)
        queued, _ = store.begin_run("f" * 64, "TINY")
        failed, _ = store.begin_run("e" * 64, "TINY")
        store.fail(failed.run_id, "worker lost")
        rows = store.results_for_sweep("TINY")
        assert [run.run_id for run, _ in rows] == [done.run_id]

    def test_latest_result_returns_the_newest_done_run(self, tmp_path):
        db = tmp_path / "store.sqlite"
        store = ResultsStore(db)
        first, second = self._seed(store, seeds=(5, 6))
        # Same-second creation would leave "newest" ambiguous; age the
        # first run explicitly.
        with sqlite3.connect(db) as conn:
            conn.execute(
                "UPDATE runs SET created_utc = '2000-01-01T00:00:00Z' "
                "WHERE run_id = ?",
                (first.run_id,),
            )
        run, result = store.latest_result("TINY")
        assert run.run_id == second.run_id
        assert canonical_result_text(result) == canonical_result_text(
            second.result
        )

    def test_latest_result_missing_sweep_names_the_seeding_command(
        self, tmp_path
    ):
        store = ResultsStore(tmp_path / "store.sqlite")
        self._seed(store)
        with pytest.raises(StoreError) as err:
            store.latest_result("E3")
        message = str(err.value)
        assert "no completed runs of sweep 'E3'" in message
        assert "repro-experiments sweep E3" in message

    def test_schema_mismatch_fails_before_any_read(self, tmp_path):
        db = tmp_path / "store.sqlite"
        ResultsStore(db)
        with sqlite3.connect(db) as conn:
            conn.execute(
                "UPDATE meta SET value = 'repro-store/v999' "
                "WHERE key = 'schema'"
            )
        with pytest.raises(StoreError, match="repro-store/v999"):
            ResultsStore(db)
