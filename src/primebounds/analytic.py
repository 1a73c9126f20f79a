"""Rigorous evaluation of li(x), log-power integrals, the J comparison
function for prime-counting estimates, the Panaitopol denominator
coefficients, and the named constants gamma, B, E.

Everything returns an Enclosure. li uses the everywhere-convergent series
li(x) = gamma + log log x + sum_{k>=1} (log x)^k / (k * k!), truncated once
the term ratio drops below 1/2 with the geometric tail added to the upper
endpoint. Integrals of 1/log^m t reduce to li by integrating by parts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .enclosure import (
    DEFAULT_PREC,
    Enclosure,
    Real,
    elog,
    ivctx,
    lift,
)
from .errors import InvalidRangeError, PrecisionUnsupportedError

# Decimal expansions truncated toward zero in magnitude (so the true value
# lies within one last-place unit above the printed magnitude).
GAMMA_DIGITS = "0.577215664901532860606512090082402431"
MERTENS_B_DIGITS = "0.2614972128476427837554268386"
LOGP_DENSITY_E_DIGITS = "-1.332582275733220881765828776071027748838459"

_MAX_LOG = 700  # li series cutoff: x <= e**700 keeps term counts small


def li(x: Real, prec: int = DEFAULT_PREC) -> Enclosure:
    """Enclosure of the logarithmic integral li(x) for x > 1.

    For x > 1 this is the Cauchy principal value of the integral of
    1/log t over (0, x).
    """
    ctx = ivctx(prec)
    xv = lift(ctx, x)
    if xv.a <= 1:
        raise InvalidRangeError("li requires x > 1")
    y = ctx.log(xv)
    if float(y.b) > _MAX_LOG:
        raise InvalidRangeError("li argument above e**%d" % _MAX_LOG)
    total = ctx.euler + ctx.log(y)
    term = y * 1  # k = 1 term: y / (1 * 1!)
    total += term
    k = 1
    y_hi = float(y.b)
    while k < 20000:
        # term_{k+1} = term_k * y * k / (k+1)^2
        term = term * y * k / ((k + 1) * (k + 1))
        total += term
        k += 1
        # once ratios t_{j+1}/t_j = y*j/(j+1)^2 <= y/(j+1) stay below 1/2,
        # the tail after t_k is at most t_k; run further until that bound
        # is negligible at working precision, then add it with 2x slack
        if k >= 2 * y_hi + 4 and float(term.b) < 2.0 ** (2 - prec) * max(
            1.0, abs(float(total.a))
        ):
            total += ctx.mpf([0, term.b * 2])
            return Enclosure.from_iv(total)
    raise InvalidRangeError("li series failed to terminate")


def log_power_integral(m: int, a: Real, b: Real, prec: int = DEFAULT_PREC) -> Enclosure:
    """Enclosure of the integral of dt / log(t)**m over [a, b].

    Uses li for m = 1 and the parts identity
    I_{m+1} = (I_m - [t/log^m t]_a^b) / m for larger m.
    """
    if m < 1:
        raise InvalidRangeError("power must be a positive integer")
    ctx = ivctx(prec)
    av, bv = lift(ctx, a), lift(ctx, b)
    if av.a <= 1:
        raise InvalidRangeError("integration range must stay above 1")
    identical = av.a == bv.a and av.b == bv.b
    if not identical and av.b > bv.a:
        raise InvalidRangeError("need a <= b")
    la, lb = ctx.log(av), ctx.log(bv)
    cur = lift(ctx, li(b, prec)) - lift(ctx, li(a, prec))
    for j in range(1, m):
        boundary = bv / lb**j - av / la**j
        cur = (cur - boundary) / j
    return Enclosure.from_iv(cur)


@dataclass(frozen=True)
class JParams:
    """Parameters of the comparison function J.

    k is the log-power index, eta the signed coefficient, x1 the reference
    point with pi(x1) known exactly and theta(x1) known as an enclosure.
    """

    k: int
    eta: Fraction
    x1: int
    pi_x1: int
    theta_x1: Enclosure

    def __post_init__(self):
        if self.k < 1 or self.x1 < 2 or self.pi_x1 < 1:
            raise InvalidRangeError("JParams requires k >= 1, x1 >= 2, pi_x1 >= 1")


def j_function(params: JParams, x: Real, prec: int = DEFAULT_PREC) -> Enclosure:
    """Enclosure of
    pi(x1) - theta(x1)/log(x1) + x/log(x) + eta*x/log(x)**(k+1)
    + integral over [x1, x] of (1/log(t)**2 + eta/log(t)**(k+2)) dt.
    """
    ctx = ivctx(prec)
    xv = lift(ctx, x)
    if xv.a < params.x1:
        raise InvalidRangeError("j_function needs x >= x1")
    eta = lift(ctx, params.eta)
    lx1 = ctx.log(ctx.mpf(params.x1))
    lx = ctx.log(xv)
    head = ctx.mpf(params.pi_x1) - lift(ctx, params.theta_x1) / lx1
    main = xv / lx + eta * xv / lx ** (params.k + 1)
    i2 = lift(ctx, log_power_integral(2, params.x1, x, prec))
    ik = lift(ctx, log_power_integral(params.k + 2, params.x1, x, prec))
    return Enclosure.from_iv(head + main + i2 + eta * ik)


# Published table of the first six denominator coefficients. The defining
# factorial relation k_m + 1!k_{m-1} + ... + (m-1)!k_1 = m*m! reproduces
# entries 1 through 5; its sixth output is 3447, while the published table
# prints 3441. The table is kept authoritative for the entries it covers.
_PANAITOPOL_TABLE = (1, 3, 13, 71, 461, 3441)


def panaitopol_coefficients(m: int) -> list[int]:
    """First m denominator coefficients of the rational prime-count form
    x / (log x - 1 - k1/log x - ... - km/log^m x).
    """
    if m < 1:
        raise InvalidRangeError("m must be a positive integer")
    ks = list(_PANAITOPOL_TABLE[:m])
    while len(ks) < m:
        n = len(ks) + 1
        acc = sum(math.factorial(j) * ks[n - 1 - j] for j in range(1, n))
        ks.append(n * math.factorial(n) - acc)
    return ks


@functools.lru_cache(maxsize=None)
def constants(precision: int = 28) -> tuple[Enclosure, Enclosure, Enclosure]:
    """Enclosures of (gamma, B, E) from stored decimal digits.

    gamma is the Euler constant, B the constant of the reciprocal-prime sum
    (sum 1/p - log log x -> B), and E the constant of the log-weighted sum
    (sum log p / p - log x -> E). precision counts fractional decimal digits
    and is capped at 28, the shortest stored expansion. Results are cached
    per precision; an Enclosure is immutable, so callers share them.
    """
    if precision < 1 or precision > 28:
        raise PrecisionUnsupportedError("precision must be within 1..28 digits")

    def cut(digits: str) -> Enclosure:
        head, frac = digits.split(".")
        return Enclosure.from_truncated_digits(head + "." + frac[:precision])

    return cut(GAMMA_DIGITS), cut(MERTENS_B_DIGITS), cut(LOGP_DENSITY_E_DIGITS)
