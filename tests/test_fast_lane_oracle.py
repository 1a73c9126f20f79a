"""The float64 fast lane against an all-exact scan, where the claim is tight.

A scan needs no true state, only a consistent one.  So each window starts
from pi(x0 - 1) := floor(bound(x0)), set with AccumulatorState.anchored_at:
the count then walks within a few units of the bound across the window,
where the fast lane's shortcuts must decide.  The oracle is the same window
scanned with every plan's exact_pairs set, which sends each cell through
the exact lane.  The two reports' JSON (wall time zeroed) must be equal.
ROADMAP item 11 extends this to every lane and to heights up to 2**53.
"""

import json
import math
from dataclasses import replace

import pytest

from primebounds import verify
from primebounds.bounds import eval_bound, lookup
from primebounds.errors import FastLaneMismatchError
from primebounds.sieve import AccumulatorState

WIDTH = 40_000

# The fast lane's fixed margins are below the float error of pi bounds near
# 8e15, so these windows differ today, and by how much depends on the
# platform's libm: ROADMAP item 1.
_FLOAT_ERROR = pytest.mark.xfail(
    raises=(AssertionError, FastLaneMismatchError),
    strict=False,
    reason="fixed fast-lane margin below the float error (ROADMAP item 1)",
)


def _report(spec, x0, pi):
    state = AccumulatorState.anchored_at(x0 - 1, pi)
    (claim,) = verify.scan_claims([spec], x0, x0 + WIDTH, state=state, resolve_crossings=False)
    return verify.report_to_json(replace(claim.report, wall_time=0.0))


@pytest.mark.parametrize(
    "bound_id, x0, pi",
    [
        (bound_id, x0, None)
        for bound_id in ("thm3.2.upper", "thm3.8.lower", "cor3.7.upper")
        for x0 in (10**10, 10**13)
    ]
    + [
        # the fast lane counts one failure more (737) than the exact lane
        pytest.param(
            "thm3.2.upper", 8_000_000_000_403_958, 224_793_297_769_425, marks=_FLOAT_ERROR
        ),
        # the fast lane passes a cell that the exact lane fails (557 against 558)
        pytest.param(
            "thm3.8.lower", 8_000_000_000_140_891, 224_791_917_594_737, marks=_FLOAT_ERROR
        ),
    ],
)
def test_fast_lane_matches_the_exact_lane(monkeypatch, bound_id, x0, pi):
    spec = lookup(bound_id)
    if pi is None:
        pi = math.floor(eval_bound(spec, x0).lo)
    fast = _report(spec, x0, pi)
    make_plan = verify._make_plan
    monkeypatch.setattr(verify, "_make_plan", lambda *a: replace(make_plan(*a), exact_pairs=True))
    exact = _report(spec, x0, pi)
    doc = json.loads(exact)
    assert 0 < doc["failures"] < doc["checked"], "the anchor should put the window at the bound"
    assert fast == exact
