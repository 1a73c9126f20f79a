"""Golden bound values: every registry entry's right-hand side stays bitwise
identical, and the float64 fast lane agrees with the interval evaluation.

tests/data/golden_bounds.txt holds, for every registry entry, at integer x
from 3 to 2**53 - 111 and at two Enclosure cells, the exact eval_bound
endpoints at 106 and 212 bits (or the name of the error it raises).  Print
the current text with

    PYTHONPATH=src python tests/test_golden_bounds.py
"""

import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from primebounds import proofkit, sieve, verify
from primebounds.bounds import BoundKind, eval_bound, lookup, registry_list
from primebounds.enclosure import DEFAULT_PREC, RETRY_PREC, Enclosure
from primebounds.errors import PrimeBoundsError

GOLDEN = Path(__file__).parent / "data" / "golden_bounds.txt"

POINTS = (
    3, 10, 100, 1000, 65_537, 10**6 + 3, 10**8, 19_033_744_403, 10**12 + 39,
    10**15, 2**53 - 111,
    Enclosure(1000, 1009),
    Enclosure(10**10 + 19, 10**10 + 33),
)


def _label(x) -> str:
    if isinstance(x, Enclosure):
        return "[%s,%s]" % x.decimal_pair()
    return str(x)


def golden_text() -> str:
    lines = []
    for spec in registry_list():
        for x in POINTS:
            for prec in (DEFAULT_PREC, RETRY_PREC):
                try:
                    e = eval_bound(spec, x, prec)
                except PrimeBoundsError as exc:
                    value = type(exc).__name__
                else:
                    value = "%s %s" % e.decimal_pair()
                lines.append("%s %s %d %s\n" % (spec.id, _label(x), prec, value))
    return "".join(lines)


def test_eval_bound_matches_golden():
    expected = GOLDEN.read_text()
    assert expected.count("\n") == 2 * len(POINTS) * len(registry_list())
    assert golden_text() == expected


AGREEMENT_XS = sorted({int(10 ** (0.5 + 15.4 * i / 39)) for i in range(40)})

# the entries whose float evaluation certified_start guards against far
# cancellation (proofkit._guard_polys)
GUARDED = [s for s in registry_list() if s.kind in (BoundKind.PI_RATIONAL, BoundKind.PRODUCT_MERTENS)]


def _start(spec) -> int:
    start = proofkit.certified_start(spec, 2, sieve.LAST_PRIME)
    assert start is not None and start < 3 * 10**5
    return start


@pytest.mark.parametrize(
    "spec",
    [s for s in registry_list() if s.kind is not BoundKind.PI_LI_SQRT],
    ids=lambda s: s.id,
)
def test_float_lane_agrees_with_eval_bound(spec):
    """_bound_float lies within 1e-12 relative of eval_bound's midpoint,
    from the certified start on for the guarded entries, where the fast
    lane reads them; the Mertens product is compared on the log scale that
    its float lane uses.  1e-12 lies within the share of verify._EPS that
    its derivation gives a bound value, 2**15 u."""
    assert 1e-12 <= 2**15 * 2.0**-53 == verify._EPS / 4
    assert AGREEMENT_XS[0] == 3 and AGREEMENT_XS[-1] < 2**53 and len(AGREEMENT_XS) >= 38
    xs = AGREEMENT_XS
    if spec in GUARDED:
        xs = [xi for xi in xs if xi >= _start(spec)]
        assert len(xs) >= 35
    x = np.array(xs, dtype=np.float64)
    vals = verify._bound_float(spec, x, np.log(x))
    for i, xi in enumerate(xs):
        mid = eval_bound(spec, xi, RETRY_PREC)
        mid = (mid.lo + mid.hi) / 2
        if spec.kind is BoundKind.PRODUCT_MERTENS:
            mid = mpmath.log(mid)
        rel = abs(vals[i] - float(mid)) / abs(float(mid))
        assert rel < 1e-12, (spec.id, xi, rel)
        assert math.isfinite(vals[i])


def test_libm_is_within_one_ulp():
    """The assumption of verify._EPS's derivation: np.log, pow, np.sqrt and
    np.exp, each at its own float64 input, lie within one ulp of the exact
    value, at 3,000 points x from 3 to 2**53 (L = log x) against 200-bit
    mpmath: np.log at x and L, L**k for k = 2..7, np.sqrt(L), the
    THETA_ENVELOPE_EXP factor np.exp(-np.sqrt(L/R)) and x**0.5."""
    x = np.geomspace(3, 2.0**53, 3000)
    L = np.log(x)
    R = float(lookup("eq2.12.upper").coefficients[1])
    root = np.sqrt(L / R)
    cases = [(np.log, x, mpmath.log), (np.log, L, mpmath.log), (np.sqrt, L, mpmath.sqrt)]
    cases += [(np.sqrt, L / R, mpmath.sqrt), (lambda t: np.exp(-t), root, lambda t: mpmath.exp(-t))]
    cases += [(lambda t: t**0.5, x, mpmath.sqrt)]
    cases += [(lambda t, k=k: t**k, L, lambda t, k=k: t**k) for k in range(2, 8)]
    with mpmath.workprec(200):
        for got, at, exact in cases:
            for g, a in zip(got(at).tolist(), at.tolist()):
                want = exact(mpmath.mpf(a))
                assert abs(g - want) <= mpmath.ldexp(1, mpmath.frexp(want)[1] - 53), (a, g)


def _cancellation(spec, L):
    """The sum of the magnitudes of the terms of spec's rational denominator
    L - 1 - sum a_i/L^i or Mertens body 1 + sum c_i/L^p_i, over its value."""
    c = [float(v) for v in spec.coefficients]
    if spec.kind is BoundKind.PI_RATIONAL:
        terms = [L, -np.ones_like(L)] + [-a / L**i for i, a in enumerate(c, start=1)]
    else:
        terms = [np.ones_like(L)] + [c[i] / L ** c[i + 1] for i in range(0, len(c), 2)]
    value = sum(terms)
    assert (value > 0).all()
    return sum(np.abs(t) for t in terms) / value


@pytest.mark.parametrize("spec", GUARDED, ids=lambda s: s.id)
def test_suspect_guards_bound_the_cancellation(spec):
    """From its certified start, where certified_start proves it exactly, a
    rational denominator's or Mertens body's terms' magnitudes sum to at
    most 2**8 times it, the amplification the derivation of verify._EPS
    allows, in float64 at 2,000 points to 2**53."""
    L = np.linspace(math.log(_start(spec)), 53 * math.log(2), 2000)
    assert _cancellation(spec, L).max() <= 2**8


@pytest.mark.parametrize("spec", GUARDED, ids=lambda s: s.id)
def test_no_suspect_end_from_the_certified_start(spec):
    """The fast lane reads a bound only from its certified start x*, and no
    guarded entry cancels past 2**8 there or past it: at every integer from
    x* to 3e5 and at 5,000 points from there to 2**53."""
    x = np.concatenate(
        (np.arange(_start(spec), 3 * 10**5, dtype=np.float64), np.geomspace(3 * 10**5, 2.0**53, 5000))
    )
    assert _cancellation(spec, np.log(x)).max() <= 2**8


if __name__ == "__main__":
    sys.stdout.write(golden_text())
