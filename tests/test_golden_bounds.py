"""Golden bound values: every registry entry's right-hand side stays bitwise
identical, and the float64 fast lane agrees with the interval evaluation.

tests/data/golden_bounds.txt holds, for every registry entry, at integer x
from 3 to 2**53 - 111 and at two Enclosure cells, the exact eval_bound
endpoints at 106 and 212 bits (or the name of the error it raises).  Print
the current text with

    PYTHONPATH=src python tests/test_golden_bounds.py
"""

import functools
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from primebounds import verify
from primebounds.bounds import BoundKind, eval_bound, registry_list
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


@pytest.mark.parametrize(
    "spec",
    [s for s in registry_list() if s.kind is not BoundKind.PI_LI_SQRT],
    ids=lambda s: s.id,
)
def test_float_lane_agrees_with_eval_bound(spec):
    """_bound_float lies within 1e-12 relative of eval_bound's midpoint at
    every point that is not suspect; the Mertens product is compared on
    the log scale that its float lane uses.  1e-12 lies within the share
    of verify._EPS that its derivation gives a bound value, 2**15 u."""
    assert 1e-12 <= 2**15 * 2.0**-53 == verify._EPS / 4
    assert AGREEMENT_XS[0] == 3 and AGREEMENT_XS[-1] < 2**53 and len(AGREEMENT_XS) >= 38
    x = np.array(AGREEMENT_XS, dtype=np.float64)
    L = np.log(x)
    vals, suspect = verify._bound_float(spec, x, L, functools.cache(L.__pow__))
    for i, xi in enumerate(AGREEMENT_XS):
        if suspect is not None and suspect[i]:
            continue
        mid = eval_bound(spec, xi, RETRY_PREC)
        mid = (mid.lo + mid.hi) / 2
        if spec.kind is BoundKind.PRODUCT_MERTENS:
            mid = mpmath.log(mid)
        rel = abs(vals[i] - float(mid)) / abs(float(mid))
        assert rel < 1e-12, (spec.id, xi, rel)
        assert math.isfinite(vals[i])


@pytest.mark.parametrize(
    "spec",
    [s for s in registry_list() if s.kind in (BoundKind.PI_RATIONAL, BoundKind.PRODUCT_MERTENS)],
    ids=lambda s: s.id,
)
def test_suspect_guards_bound_the_cancellation(spec):
    """Where _bound_float trusts a rational denominator L - 1 - sum a_i/L^i
    or a Mertens body 1 + sum c_i/L^p_i, its terms' magnitudes sum to at
    most 2**8 times it, the amplification the derivation of verify._EPS
    allows, at 2,000 points from x = 3 to 2**53."""
    L = np.linspace(math.log(3), 53 * math.log(2), 2000)
    c = [float(v) for v in spec.coefficients]
    if spec.kind is BoundKind.PI_RATIONAL:
        terms = [L, -np.ones_like(L)] + [-a / L**i for i, a in enumerate(c, start=1)]
    else:
        terms = [np.ones_like(L)] + [c[i] / L ** c[i + 1] for i in range(0, len(c), 2)]
    value = sum(terms)
    _, suspect = verify._bound_float(spec, np.exp(L), L, functools.cache(L.__pow__))
    trusted = ~suspect
    assert trusted.sum() > 1000
    size = sum(np.abs(t) for t in terms)
    assert (size[trusted] <= 2**8 * value[trusted]).all()


if __name__ == "__main__":
    sys.stdout.write(golden_text())
