"""Golden-report regression tests.

Every rendering here regenerates from a *seeded results store* — the
sweeps are computed once into a temporary store, then each report is
rebuilt with computation disabled, so the bytes prove the whole
data-driven path (store rows -> ReportSpec builders -> render) is
deterministic and unchanged.  The committed goldens double as readable
examples of each report's exact output at smoke scale.

Regenerate after an intentional rendering change with::

    PYTHONPATH=src python tests/golden/test_golden_reports.py --regen

and review the diff like any other source change.  The same command
rewrites ``reports_smoke.json``: the digest of every E1-E14 smoke
report, which ``test_experiment_smoke_passes`` compares against.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.engine.store import ResultsStore
from repro.reports import (
    SweepSource,
    evaluate_claims,
    get_claims,
    required_sweeps,
    verdict_table,
)

GOLDEN_DIR = Path(__file__).resolve().parent

#: The goldened experiments: a Theorem-1 sweep report (E1), the
#: headline dumbbell report (E3) and the failure-injection report
#: (E13) — two sweep shapes plus the claims verdict table below.
EXPERIMENT_IDS = ("E1", "E3", "E13")

#: Claims evaluable from the goldened sweeps alone.
CLAIM_IDS = (
    "E1-thm1-bound",
    "E3-vanilla-linear",
    "E3-speedup",
    "E6-dominance",
    "E13-lossy-slowdown",
    "E13-failover",
)


def _seed_store(directory) -> ResultsStore:
    """Compute the goldened sweeps once, through the store."""
    store = ResultsStore(Path(directory) / "golden.sqlite")
    source = SweepSource(store=store)
    for sweep_id, seed in sorted(
        required_sweeps(get_claims(CLAIM_IDS)).items()
    ):
        source.resolve(sweep_id, scale="smoke", seed=seed)
    return store


def _render_report(store: ResultsStore, experiment_id: str) -> str:
    from repro.experiments.specs import run_experiment

    report = run_experiment(
        experiment_id,
        scale="smoke",
        source=SweepSource(store=store, compute=False),
    )
    return report.render() + "\n"


def _render_claims(store: ResultsStore) -> str:
    claims = get_claims(CLAIM_IDS)
    source = SweepSource(store=store, compute=False)
    results = {
        sweep_id: source.resolve(sweep_id, scale="smoke", seed=seed)
        for sweep_id, seed in required_sweeps(claims).items()
    }
    return verdict_table(claims, evaluate_claims(claims, results)).render() + "\n"


@pytest.fixture(scope="module")
def seeded_store(tmp_path_factory):
    return _seed_store(tmp_path_factory.mktemp("golden-store"))


@pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
def test_report_regenerates_byte_identical(seeded_store, experiment_id):
    golden = GOLDEN_DIR / f"{experiment_id.lower()}_smoke.txt"
    rendered = _render_report(seeded_store, experiment_id)
    assert rendered == golden.read_text(encoding="utf-8"), (
        f"{experiment_id} drifted from {golden}; if the change is "
        "intentional, regenerate with "
        "`PYTHONPATH=src python tests/golden/test_golden_reports.py --regen` "
        "and commit the diff"
    )


def test_claims_verdicts_regenerate_byte_identical(seeded_store):
    golden = GOLDEN_DIR / "claims_smoke.txt"
    assert _render_claims(seeded_store) == golden.read_text(encoding="utf-8")


def test_rebuild_from_the_same_store_is_deterministic(seeded_store):
    assert _render_report(seeded_store, "E3") == _render_report(
        seeded_store, "E3"
    )


def _regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        store = _seed_store(scratch)
        for experiment_id in EXPERIMENT_IDS:
            path = GOLDEN_DIR / f"{experiment_id.lower()}_smoke.txt"
            path.write_text(
                _render_report(store, experiment_id), encoding="utf-8"
            )
            print(f"wrote {path}")
        path = GOLDEN_DIR / "claims_smoke.txt"
        path.write_text(_render_claims(store), encoding="utf-8")
        print(f"wrote {path}")
    _regenerate_smoke_digests()


def _regenerate_smoke_digests() -> None:
    import json
    import sys

    from repro.experiments.specs import EXPERIMENTS, run_experiment

    sys.path.insert(0, str(GOLDEN_DIR.parent / "integration"))
    from test_experiments_and_cli import SMOKE_DIGESTS, smoke_digest

    digests = {
        experiment_id: smoke_digest(run_experiment(experiment_id, scale="smoke"))
        for experiment_id in sorted(EXPERIMENTS)
    }
    SMOKE_DIGESTS.write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {SMOKE_DIGESTS}")


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/golden/test_golden_reports.py --regen")
    _regenerate()
