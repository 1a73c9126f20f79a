"""The float64 fast lane against an all-exact scan, where the claim is tight.

A scan needs no true state, only a consistent one.  So each window starts
from a state at x0 - 1 whose lane value sits at the bound at x0: pi(x0 - 1)
:= floor(bound(x0)), set with AccumulatorState.anchored_at, or a theta or
summed-lane value at the bound's midpoint, with a budget of the size the
sieve's term budgets give (2**-50 of the value), set with
dataclasses.replace.  The quantity then walks about the bound across the
window, where the fast lane's tolerance must decide.  The oracle is the
same window scanned with verify._EPS patched to infinity: then no run
passes or fails whole, so each cell goes through the exact lane.  The two
reports' JSON (wall time zeroed) must be equal, from 10^10 to 8e15, where
one ulp of a pi bound is 2**-5; an li window at 10^10 checks the fast
lane's li series.  At 8e15 the fast lane's tolerance is wider than the
walk, so a window at the bound goes wholly to the exact lane; two claims
there are also anchored three tolerances off the bound, where the fast
lane itself must decide every cell.  ROADMAP item 11 extends this to the gap lane and
to more heights up to 2**53.
"""

import json
import math
from dataclasses import replace

import mpmath
import pytest

from primebounds import dyadic, verify
from primebounds.bounds import eval_bound, lookup
from primebounds.sieve import AccumulatorState

WIDTH = 40_000


def _state_at_bound(spec, x0, pi):
    """A consistent state at x0 - 1 whose lane value sits at spec's bound at
    x0; a pi claim's count is pi when given."""
    lane = verify._LANE_OF_KIND[spec.kind]
    b = eval_bound(spec, x0)
    if lane == "pi":
        return AccumulatorState.anchored_at(x0 - 1, math.floor(b.lo) if pi is None else pi)
    mid = (b.lo + b.hi) / 2
    if lane == "log1m":  # the state holds -log of the Mertens product
        mid = -mpmath.log(mid)
    v = int(mpmath.floor(mpmath.ldexp(mid, dyadic.SCALE_BITS)))
    state = AccumulatorState(x=x0 - 1, pi=0)
    return replace(state, sums={**state.sums, lane: (v, v >> 50)})


def _report(spec, x0, state):
    (claim,) = verify.scan_claims([spec], x0, x0 + WIDTH, state=state, resolve_crossings=False)
    return verify.report_to_json(replace(claim.report, wall_time=0.0))


@pytest.mark.parametrize(
    "bound_id, x0, pi",
    [
        (bound_id, x0, None)
        for bound_id in ("thm3.2.upper", "thm3.8.lower", "cor3.7.upper")
        for x0 in (10**10, 10**13)
    ]
    + [("eq3.1.upper", 10**10, None)]
    + [
        # windows where a fixed absolute margin of 1e-3 went wrong: the fast
        # lane counted one failure more (737) than the exact lane in the
        # first, and passed a cell that the exact lane fails in the second
        ("thm3.2.upper", 8_000_000_000_403_958, 224_793_297_769_425),
        ("thm3.8.lower", 8_000_000_000_140_891, 224_791_917_594_737),
    ]
    + [
        (bound_id, x0, None)
        for bound_id in ("thm2.4.upper", "thm2.4.lower", "prop5.1.upper")
        for x0 in (10**12, 8 * 10**15)
    ],
)
def test_fast_lane_matches_the_exact_lane(monkeypatch, bound_id, x0, pi):
    spec = lookup(bound_id)
    state = _state_at_bound(spec, x0, pi)
    fast = _report(spec, x0, state)
    monkeypatch.setattr(verify, "_EPS", math.inf)
    exact = _report(spec, x0, state)
    doc = json.loads(exact)
    assert 0 < doc["failures"] < doc["checked"], "the anchor should put the window at the bound"
    assert fast == exact


@pytest.mark.usefixtures("one_process")
@pytest.mark.parametrize("off", [-3, 3])
@pytest.mark.parametrize(
    "bound_id, x0", [("thm3.2.upper", 8_000_000_000_403_958), ("thm3.8.lower", 8_000_000_000_140_891)]
)
def test_fast_lane_decides_three_tolerances_off_the_bound(monkeypatch, bound_id, x0, off):
    # At 8e15 the fast lane's tol, _EPS (|bound| + |pi|), is about 6,550, so
    # a window anchored at the bound leaves every cell unsure.  Anchored
    # three tolerances off it, the fast lane must decide every cell itself:
    # the exact lane sees only the 64 kept fails it confirms.
    spec = lookup(bound_id)
    b = eval_bound(spec, x0)
    tol = verify._EPS * 2 * float(b.hi)
    state = AccumulatorState.anchored_at(x0 - 1, math.floor(b.lo) + off * math.ceil(tol))
    check_cell, checked = verify._check_cell, []

    def counted(*args):
        checked.append(args[1])
        return check_cell(*args)

    monkeypatch.setattr(verify, "_check_cell", counted)
    fast = _report(spec, x0, state)
    fast_checks = len(checked)
    monkeypatch.setattr(verify, "_EPS", math.inf)
    exact = _report(spec, x0, state)
    doc = json.loads(exact)
    passing = (off > 0) == (spec.direction == "lower")
    assert doc["failures"] == (0 if passing else doc["checked"])
    assert fast == exact
    assert fast_checks == (0 if passing else verify.COUNTEREXAMPLE_CAP)
    assert len(checked) - fast_checks == doc["checked"]
