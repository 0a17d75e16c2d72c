"""Property tests: claim verdicts flip exactly at the declared tolerance.

The drift gate's value is its threshold behaviour: a stored statistic
perturbed to anywhere *inside* the claim's tolerance band must keep the
verdict green, and any perturbation that lands *outside* the band must
flip it red — no hysteresis, no hidden slack.  Hypothesis drives the
perturbations; a tiny exclusion zone around each boundary keeps float
rounding out of the contract.
"""

from __future__ import annotations

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.sweeps import PointResult, ReplicateBudget, SweepResult
from repro.reports.claims import (
    BoundClaim,
    DominanceClaim,
    ExponentClaim,
    RatioClaim,
    SpreadClaim,
)

#: Boundary exclusion half-width — perturbations closer to a tolerance
#: edge than this are discarded (float noise territory, not drift).
EDGE = 1e-6


def make_point(index, params, estimate, samples=None):
    if samples is None:
        samples = [estimate] * 3
    return PointResult(
        index=index,
        params=dict(params),
        estimate=estimate,
        ci_low=estimate,
        ci_high=estimate,
        quantile=0.5,
        threshold=1e-3,
        samples=list(samples),
        n_censored=sum(1 for s in samples if math.isinf(s)),
        n_diverged=0,
        budget_exhausted=False,
    )


def make_result(name, axes, rows):
    points = [make_point(i, *row) for i, row in enumerate(rows)]
    return SweepResult(
        sweep_name=name,
        axes={k: list(v) for k, v in axes.items()},
        seed=0,
        budget=ReplicateBudget.fixed(3),
        points=points,
    )


@given(
    ratio=st.floats(min_value=0.05, max_value=50.0),
    base=st.floats(min_value=0.5, max_value=100.0),
)
@settings(max_examples=100)
def test_ratio_claim_flips_exactly_at_the_band_edges(ratio, base):
    claim = RatioClaim(
        claim_id="p-ratio",
        experiment_id="EX",
        sweep="X",
        paper_ref="r",
        statement="s",
        numerator={"algorithm": "num"},
        denominator={"algorithm": "den"},
        low=1.0,
        high=2.6,
    )
    assume(abs(ratio - claim.low) > EDGE * claim.low)
    assume(abs(ratio - claim.high) > EDGE * claim.high)
    result = make_result(
        "X",
        {"algorithm": ["num", "den"]},
        [
            ({"algorithm": "num"}, ratio * base),
            ({"algorithm": "den"}, base),
        ],
    )
    verdict = claim.evaluate({"X": result})
    assert verdict.passed == (claim.low < ratio < claim.high)


@given(
    exponent=st.floats(min_value=0.0, max_value=3.0),
    prefactor=st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=100)
def test_exponent_claim_flips_exactly_at_the_band_edges(exponent, prefactor):
    claim = ExponentClaim(
        claim_id="p-exp",
        experiment_id="EX",
        sweep="X",
        paper_ref="r",
        statement="s",
        axis="n",
        low=0.7,
        high=1.5,
    )
    assume(abs(exponent - claim.low) > EDGE)
    assume(abs(exponent - claim.high) > EDGE)
    sizes = [16, 32, 64, 128]
    result = make_result(
        "X",
        {"n": sizes},
        [({"n": n}, prefactor * n**exponent) for n in sizes],
    )
    verdict = claim.evaluate({"X": result})
    # Exact power-law data: the fit recovers the exponent to float
    # precision, so the verdict is a pure band membership test.
    assert verdict.passed == (claim.low < exponent < claim.high)
    assert abs(verdict.observed - exponent) < 1e-6


@given(
    margin=st.floats(min_value=0.1, max_value=10.0),
    factor=st.sampled_from([1.0, 4.0]),
    side=st.sampled_from(["lower", "upper"]),
)
@settings(max_examples=100)
def test_bound_claim_flips_exactly_at_the_threshold(margin, factor, side):
    assume(abs(margin - 1.0) > EDGE)
    bound_value = 7.0
    claim = BoundClaim(
        claim_id="p-bound",
        experiment_id="EX",
        sweep="X",
        paper_ref="r",
        statement="s",
        bound=lambda params: bound_value,
        side=side,
        factor=factor,
    )
    # estimate = margin * threshold: above the line iff margin > 1.
    result = make_result(
        "X", {"n": [8]}, [({"n": 8}, margin * factor * bound_value)]
    )
    verdict = claim.evaluate({"X": result})
    if side == "lower":
        assert verdict.passed == (margin > 1.0)
    else:
        assert verdict.passed == (margin < 1.0)


@given(spread=st.floats(min_value=1.0, max_value=25.0))
@settings(max_examples=100)
def test_spread_claim_flips_exactly_at_max_ratio(spread):
    claim = SpreadClaim(
        claim_id="p-spread",
        experiment_id="EX",
        sweep="X",
        paper_ref="r",
        statement="s",
        max_ratio=5.0,
    )
    assume(abs(spread - claim.max_ratio) > EDGE)
    result = make_result(
        "X",
        {"w": [0, 1, 2]},
        [({"w": 0}, 2.0), ({"w": 1}, 2.0 * spread), ({"w": 2}, 3.0)],
    )
    verdict = claim.evaluate({"X": result})
    assert verdict.passed == (spread < claim.max_ratio)


@given(
    lift=st.floats(min_value=0.2, max_value=3.0),
    samples=st.lists(
        st.floats(min_value=0.5, max_value=20.0), min_size=2, max_size=6
    ),
)
@settings(max_examples=100)
def test_dominance_claim_flips_exactly_at_the_margin(lift, samples):
    claim = DominanceClaim(
        claim_id="p-dom",
        experiment_id="EX",
        sweep="X",
        paper_ref="r",
        statement="s",
        axis="n",
        upper={"algorithm": "slow"},
        lower={"algorithm": "fast"},
        margin=1.1,
    )
    assume(abs(lift - claim.margin) > EDGE)
    # The fast arm is the slow arm scaled by `lift`: order statistics
    # cross (beyond the margin) exactly when lift > margin.
    slow = sorted(samples)
    fast = [lift * s for s in slow]
    result = make_result(
        "X",
        {"n": [16]},
        [
            ({"n": 16, "algorithm": "slow"}, slow[0], slow),
            ({"n": 16, "algorithm": "fast"}, fast[0], fast),
        ],
    )
    verdict = claim.evaluate({"X": result})
    assert verdict.passed == (lift < claim.margin)
