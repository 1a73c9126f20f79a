"""Typed registry of explicit prime-counting inequalities.

Each entry describes one side of one published inequality: an id, a kind
fixing the algebraic shape of the right-hand side, exact rational
coefficients, the claimed validity threshold, a provenance status, and a
human-readable anchor naming the statement inside the source collection.

shape(spec, x, L, o) computes the right-hand side of every kind from one
definition per kind, the table below (L is log x throughout; s is +1 for
upper entries, -1 for lower):

THETA_ENVELOPE      theta(x) vs x + s*c*x/L**k              coeffs (c, k)
THETA_ENVELOPE_EXP  theta(x) vs x + s*sqrt(c/(pi*sqrt(R)))*x*L**(1/4)
                    * exp(-sqrt(L/R))                       coeffs (c, R)
THETA_SQRT          theta(x) vs x + s*sum c_i*x**p_i*L**q_i/pi**w_i
                                            coeffs (c, p, q, w) quadruples
PI_LI_SQRT          pi(x) vs li(x) + s*sum c_i*x**p_i*L**q_i/pi**w_i
PI_RATIONAL         pi(x) vs x/(L - 1 - a1/L - a2/L**2 - ...)
                    signed a_i as printed                   coeffs (a1..)
PI_LOGPOW           pi(x) vs sum_j c_j*x/L**j, j = 1..len   coeffs (c1..)
SUM_RECIP           sum 1/p vs log L + B + sum c_i/L**p_i   signed pairs
SUM_LOGP            sum log p/p vs L + E + sum c_i/L**p_i   signed pairs
PRODUCT_MERTENS     prod (1-1/p) vs exp(-gamma)/L * (1 + sum c_i/L**p_i)
GAP                 a prime exists in (x, x*(1 + c/L**j)]   coeffs (c, j)

Magnitude-style kinds (the first four) store nonnegative coefficients and
take their sign from the direction; series-style kinds store coefficients
with the signs they are printed with.  The PI_RATIONAL and PI_LOGPOW
coefficients are not typed in: _pi_terms derives them from the theta
premise eta/log^3 x of each entry, up to the paper's closing constant.

The arithmetic o is the backend: o.const lifts an exact rational, o.lpow(L,
k) is L**k, o.xpow(x, p) is x**p, o.log, o.exp, o.sqrt and o.pi are what
they say, o.B and o.E are the prime-sum constants (lifted with o.const) and
o.li is the logarithmic integral.  One hook holds what is not arithmetic:
o.mertens(L, body) puts exp(-gamma)/L * body on the backend's scale.
eval_bound is the interval backend; verify._bound_float is the float64 one,
with the product on the log scale, read only where proofkit.certified_start
bounds the cancellation of the denominator and the Mertens body.

A PI_RATIONAL bound is x/D evaluated as it stands, D its denominator: it is
negative where D < 0, and an interval enclosure of D that straddles 0 gives
the quotient (-inf, inf).
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import analytic
from .enclosure import DEFAULT_PREC, Enclosure, ivctx, lift
from .errors import InvalidRangeError, UnknownBoundError


class BoundKind(enum.Enum):
    THETA_ENVELOPE = "THETA_ENVELOPE"
    THETA_ENVELOPE_EXP = "THETA_ENVELOPE_EXP"
    THETA_SQRT = "THETA_SQRT"
    PI_LI_SQRT = "PI_LI_SQRT"
    PI_RATIONAL = "PI_RATIONAL"
    PI_LOGPOW = "PI_LOGPOW"
    SUM_RECIP = "SUM_RECIP"
    SUM_LOGP = "SUM_LOGP"
    PRODUCT_MERTENS = "PRODUCT_MERTENS"
    GAP = "GAP"


class Verdict(enum.Enum):
    Pass = "Pass"
    Fail = "Fail"
    Indeterminate = "Indeterminate"


VALID_STATUSES = ("claimed_paper", "claimed_external")


@dataclass(frozen=True)
class BoundSpec:
    id: str
    kind: BoundKind
    direction: str  # "upper" | "lower"
    coefficients: tuple[Fraction, ...]
    threshold_x0: int
    status: str
    anchor: str

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise InvalidRangeError("bad direction %r" % self.direction)
        if self.kind is BoundKind.GAP and self.direction != "upper":
            raise InvalidRangeError("a gap claim bounds the successor prime from above")
        if self.status not in VALID_STATUSES:
            raise InvalidRangeError("bad status %r" % self.status)
        if self.threshold_x0 < 2:
            raise InvalidRangeError("threshold_x0 must be at least 2")
        if self.kind is BoundKind.PI_RATIONAL and len(self.coefficients) > 6:
            raise InvalidRangeError("rational denominators take at most 6 terms")
        object.__setattr__(self, "coefficients", tuple(as_fraction(c) for c in self.coefficients))


def as_fraction(v) -> Fraction:
    """The exact rational of an int, a Fraction or a decimal string.

    A float is refused: every constant is meant as its printed decimal,
    which the float's binary rounding is not.
    """
    if isinstance(v, float):
        raise InvalidRangeError("%r is a float; pass an int, a Fraction or a decimal string" % v)
    return Fraction(v)


def _two_sided(base_id, kind, coeffs_mag, x0, status, anchor, lower_x0=None):
    """Expand a symmetric claim into .lower and .upper entries.

    Series-style kinds get their lower coefficients negated (the printed
    form carries the sign); magnitude-style kinds keep positive magnitudes.
    """
    mag = tuple(as_fraction(c) for c in coeffs_mag)
    series = kind not in (BoundKind.THETA_ENVELOPE, BoundKind.THETA_ENVELOPE_EXP,
                          BoundKind.THETA_SQRT, BoundKind.PI_LI_SQRT)
    low = tuple(-c if series and i % 2 == 0 else c for i, c in enumerate(mag))
    return [
        BoundSpec(base_id + ".lower", kind, "lower", low, lower_x0 or x0, status, anchor),
        BoundSpec(base_id + ".upper", kind, "upper", mag, x0, status, anchor),
    ]


# enough for the longest printed pi expansions: prop3.6.upper's eight c_j
# and the six a_i of thm3.2.upper, which take 1/S to 1/L**7
_PI_SERIES_TERMS = 8


@functools.lru_cache(maxsize=None)
def _pi_series(eta: Fraction, kind: BoundKind) -> tuple[Fraction, ...]:
    """The coefficients of kind that the theta premise t*(1 + eta/log^3 t) gives.

    pi(x) = theta(x)/L + integral of theta(t)/(t log^2 t) dt, with that
    premise for theta, is x/L * S, S = sum s_j/L**j = L*J_eta(x)/x.  The
    integrand is 1/log^2 t + eta/log^5 t; a term c/log^m t gives c/L**(m-2)
    through theta(x)/L and c*(m)_k/L**(m-1+k) through the integral, (m)_k
    the rising factorial.  PI_LOGPOW takes c_j = s_(j-1).  PI_RATIONAL
    writes x/L * S as x/(L * 1/S) = x/(L - 1 - a_1/L - a_2/L**2 - ...), so
    a_i = -r_(i+1) with 1/S = sum r_j/L**j.
    """
    n = _PI_SERIES_TERMS
    s = [Fraction(0)] * n
    for c, m in ((Fraction(1), 2), (eta, 5)):
        s[m - 2] += c
        for k in range(n - m + 1):
            s[m - 1 + k] += c * math.prod(range(m, m + k))
    if kind is BoundKind.PI_LOGPOW:
        return tuple(s)
    r = [Fraction(1)]
    for j in range(1, n):
        r.append(-sum(s[i] * r[j - i] for i in range(1, j + 1)))
    return tuple(-rj for rj in r[2:])


def _pi_terms(eta, kind: BoundKind, n: int, close=None) -> tuple[Fraction, ...]:
    """The first n coefficients of _pi_series(eta, kind), the last replaced
    by the closing constant close when the paper states one."""
    terms = _pi_series(as_fraction(eta), kind)[:n]
    return terms if close is None else terms[:-1] + (as_fraction(close),)


def _build_registry() -> dict[str, BoundSpec]:
    entries: list[BoundSpec] = []
    add = entries.append

    # -- theta envelopes, c*x/log^k x ------------------------------------
    dusart_env = [
        ("lem2.3.k1", Fraction(1, 1000), 1, 908_994_923),
        ("lem2.3.k2a", Fraction(1, 5), 2, 3_594_641),
        ("lem2.3.k2b", Fraction(1, 100), 2, 7_713_133_853),
        ("lem2.3.k3a", Fraction(1), 3, 89_967_803),
        ("lem2.3.k3b", Fraction(1, 2), 3, 767_135_587),
        ("lem2.3.k4", Fraction(1513, 10), 4, 2),
    ]
    for bid, c, k, x0 in dusart_env:
        entries.extend(
            _two_sided(bid, BoundKind.THETA_ENVELOPE, (c, k), x0,
                       "claimed_external", "Lemma 2.3 (Dusart)")
        )
    eta = Fraction(3, 20)  # Theorem 2.4: |theta(x) - x| < eta*x/log^3 x
    add(BoundSpec("thm2.4.lower", BoundKind.THETA_ENVELOPE, "lower",
                  (eta, 3), 19_035_709_163, "claimed_paper", "Theorem 2.4"))
    add(BoundSpec("thm2.4.upper", BoundKind.THETA_ENVELOPE, "upper",
                  (eta, 3), 2, "claimed_paper", "Theorem 2.4"))
    add(BoundSpec("rem2.4.lower", BoundKind.THETA_ENVELOPE, "lower",
                  (Fraction(7, 20), 3), 1_332_492_593, "claimed_paper", "Remark after Theorem 2.4"))
    entries.extend(
        _two_sided("prop2.5", BoundKind.THETA_ENVELOPE, (Fraction(100), 4),
                   70_111, "claimed_paper", "Proposition 2.5")
    )
    entries.extend(
        _two_sided("eq4.5", BoundKind.THETA_ENVELOPE, (Fraction(43, 1000), 3),
                   235_385_266_837_019_986, "claimed_paper", "Equation 4.5")
    )
    entries.extend(
        _two_sided("eq4.6", BoundKind.THETA_ENVELOPE, (Fraction(9907, 100), 4),
                   72_004_899_338, "claimed_paper", "Equation 4.6")
    )
    add(BoundSpec("buethe.theta.upper", BoundKind.THETA_ENVELOPE, "upper",
                  (Fraction(0), 1), 2, "claimed_external", "Buethe theta bound"))

    # -- exponential envelope ---------------------------------------------
    entries.extend(
        _two_sided("eq2.12", BoundKind.THETA_ENVELOPE_EXP,
                   (Fraction(8), Fraction(569693, 100000)), 3,
                   "claimed_external", "Equation 2.12 (Dusart)")
    )

    # -- square-root shaped theta and pi bounds ---------------------------
    entries.extend(
        _two_sided("eq2.6", BoundKind.THETA_SQRT,
                   (Fraction(1, 8), Fraction(1, 2), 2, 1), 599,
                   "claimed_external", "Equation 2.6 (Schoenfeld, Buethe)")
    )
    add(BoundSpec("buethe.theta.sqrt.lower", BoundKind.THETA_SQRT, "lower",
                  (Fraction(39, 20), Fraction(1, 2), 0, 0), 1_423,
                  "claimed_external", "Buethe square-root theta bound"))
    add(BoundSpec("eq2.14.lower", BoundKind.THETA_SQRT, "lower",
                  (Fraction(181, 100), Fraction(1, 2), 0, 0,
                   Fraction(4, 5), Fraction(1, 4), 0, 0,
                   Fraction(103883, 50000), Fraction(1, 3), 0, 0),
                  783_674, "claimed_external", "Equation 2.14 (Buethe)"))
    entries.extend(
        _two_sided("eq3.1", BoundKind.PI_LI_SQRT,
                   (Fraction(1, 8), Fraction(1, 2), 1, 1), 2_657,
                   "claimed_external", "Equation 3.1 (Schoenfeld, Buethe)")
    )
    add(BoundSpec("buethe.pi.li.upper", BoundKind.PI_LI_SQRT, "upper",
                  (), 2, "claimed_external", "Buethe li comparison"))

    # -- pi bounds from a theta premise eta/log^3 x (_pi_terms) ----------
    R, P = BoundKind.PI_RATIONAL, BoundKind.PI_LOGPOW
    add(BoundSpec("thm3.2.upper", R, "upper", _pi_terms(eta, R, 6, 4585),
                  49, "claimed_paper", "Theorem 3.2"))
    cor33 = [
        ("cor3.3.a.upper", 5, "540.59", 32),
        ("cor3.3.b.upper", 4, "80.43", 22),
        ("cor3.3.c.upper", 3, "14.21", 14),
        ("cor3.3.d.upper", 2, "3.69", 10_031_975_087),
        ("cor3.3.e.upper", 1, "1.15", 38_284_442_297),
    ]
    for bid, n, close, x0 in cor33:
        add(BoundSpec(bid, R, "upper", _pi_terms(eta, R, n, close) + (0,) * (5 - n), x0,
                      "claimed_paper", "Corollary 3.3"))
    add(BoundSpec("cor3.4.upper", R, "upper", _pi_terms(Fraction(7, 20), R, 6),
                  45, "claimed_paper", "Corollary 3.4"))
    add(BoundSpec("prop3.5.upper", R, "upper", _pi_terms(0, R, 3, 113),
                  41, "claimed_paper", "Proposition 3.5"))
    add(BoundSpec("thm3.8.lower", R, "lower", _pi_terms(-eta, R, 6),
                  19_033_744_403, "claimed_paper", "Theorem 3.8"))
    cor39 = [
        ("cor3.9.a.lower", 5, 11_532_441_449),
        ("cor3.9.b.lower", 4, 7_822_207_951),
        ("cor3.9.c.lower", 3, 1_331_532_233),
        ("cor3.9.d.lower", 2, 38_099_531),
        ("cor3.9.e.lower", 1, 468_049),
    ]
    for bid, n, x0 in cor39:
        add(BoundSpec(bid, R, "lower", _pi_terms(-eta, R, n) + (0,) * (5 - n), x0,
                      "claimed_paper", "Corollary 3.9"))
    add(BoundSpec("prop3.10.lower", R, "lower", _pi_terms(0, R, 3, -87),
                  19_423, "claimed_paper", "Proposition 3.10"))
    add(BoundSpec("prop3.6.upper", P, "upper", _pi_terms(eta, P, 8, 6601),
                  2, "claimed_paper", "Proposition 3.6"))
    add(BoundSpec("rem3.6.upper", P, "upper", _pi_terms(0, P, 5, 133),
                  2, "claimed_paper", "Remark after Proposition 3.6"))
    add(BoundSpec("cor3.7.upper", P, "upper", _pi_terms(eta, P, 3, "2.3"),
                  27_777_762_891, "claimed_paper", "Corollary 3.7"))
    add(BoundSpec("prop3.11.lower", P, "lower", _pi_terms(-eta, P, 8),
                  19_027_490_297, "claimed_paper", "Proposition 3.11"))

    # -- prime gaps ---------------------------------------------------------
    add(BoundSpec("thm4.1.gap3", BoundKind.GAP, "upper",
                  (Fraction(87, 1000), 3), 6_034_256, "claimed_paper", "Theorem 4.1"))
    add(BoundSpec("thm4.1.gap4", BoundKind.GAP, "upper",
                  (Fraction(1982, 10), 4), 2, "claimed_paper", "Theorem 4.1"))
    add(BoundSpec("eq4.2.gap", BoundKind.GAP, "upper",
                  (Fraction(1, 5000), 2), 468_991_632, "claimed_external", "Equation 4.2 (Dusart)"))
    add(BoundSpec("eq4.3.gap", BoundKind.GAP, "upper",
                  (Fraction(1), 3), 89_693, "claimed_external", "Equation 4.3 (Dusart)"))

    # -- running prime sums -------------------------------------------------
    r1, r2 = sum_bound_from_eta(3, eta, "recip")
    entries.extend(
        _two_sided("prop5.1", BoundKind.SUM_RECIP, (r1[0], r1[1], r2[0], r2[1]),
                   46_909_074, "claimed_paper", "Proposition 5.1", lower_x0=2)
    )
    entries.extend(
        _two_sided("eq5.5", BoundKind.SUM_RECIP, (Fraction(1, 5), 3),
                   2_278_383, "claimed_external", "Equation 5.5 (Dusart)")
    )
    l1, l2 = sum_bound_from_eta(3, eta, "logp")
    entries.extend(
        _two_sided("prop5.4", BoundKind.SUM_LOGP, (l1[0], l1[1], l2[0], l2[1]),
                   30_972_320, "claimed_paper", "Proposition 5.4", lower_x0=2)
    )

    # -- the Mertens product --------------------------------------------------
    entries.extend(
        _two_sided("eq6.1", BoundKind.PRODUCT_MERTENS, (Fraction(1, 2), 2),
                   2, "claimed_external", "Equation 6.1 (Rosser, Schoenfeld)",
                   lower_x0=285)
    )
    add(BoundSpec("prop6.1.lower", BoundKind.PRODUCT_MERTENS, "lower",
                  (-r1[0], r1[1], -r2[0], r2[1]), 46_909_038,
                  "claimed_paper", "Proposition 6.1"))
    add(BoundSpec("prop6.1.upper", BoundKind.PRODUCT_MERTENS, "upper",
                  (Fraction(7, 100), 3), 2, "claimed_paper", "Proposition 6.1"))

    reg = {}
    for spec in entries:
        if spec.id in reg:
            raise InvalidRangeError("duplicate registry id %s" % spec.id)
        reg[spec.id] = spec
    return reg


def sum_bound_from_eta(k: int, eta, template: str) -> tuple[tuple[Fraction, int], tuple[Fraction, int]]:
    """Coefficient pairs ((c1, power1), (c2, power2)) for the running-sum
    envelopes derived from a theta envelope eta/log^k.

    recip: eta/(k log^k x) + (k+2) eta/((k+1) log^(k+1) x)
    logp:  eta/((k-1) log^(k-1) x) + eta/log^k x
    """
    eta = as_fraction(eta)
    if eta <= 0:
        raise InvalidRangeError("eta must be positive")
    if template == "recip":
        if k < 1:
            raise InvalidRangeError("recip template needs k >= 1")
        return (eta / k, k), ((k + 2) * eta / (k + 1), k + 1)
    if template == "logp":
        if k < 2:
            raise InvalidRangeError("logp template needs k >= 2")
        return (eta / (k - 1), k - 1), (eta, k)
    raise InvalidRangeError("unknown template %r" % template)


_REGISTRY = _build_registry()


def registry_list() -> tuple[BoundSpec, ...]:
    """Every registered one-sided bound, in a stable order."""
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def lookup(bound_id: str) -> BoundSpec:
    spec = _REGISTRY.get(bound_id)
    if spec is None:
        raise UnknownBoundError("no bound with id %r" % bound_id)
    return spec


# The shape table: one definition per kind (see the module docstring).  Sums
# run left to right from their first term, so both backends keep one order.


def _series(total, c, L, o):
    """total + sum c_i / L**p_i over the (c_i, p_i) pairs of c."""
    return sum((o.const(c[i]) / o.lpow(L, int(c[i + 1])) for i in range(0, len(c), 2)), total)


def _sqrt_terms(c, x, L, o):
    """sum c_i * x**p_i * L**q_i / pi**w_i over the quadruples of c."""
    return sum(
        o.const(c[i]) * o.xpow(x, c[i + 1]) * o.lpow(L, int(c[i + 2])) / o.pi ** int(c[i + 3])
        for i in range(0, len(c), 4)
    )


def _theta_envelope_exp(s, c, x, L, o):
    cc, rr = o.const(c[0]), o.const(c[1])
    pref = o.sqrt(cc / (o.pi * o.sqrt(rr)))
    return x + s * (pref * x * o.sqrt(o.sqrt(L)) * o.exp(-o.sqrt(L / rr)))


def _pi_rational(s, c, x, L, o):
    den = L - 1
    for i, ai in enumerate(c, start=1):
        if ai:
            den = den - o.const(ai) / o.lpow(L, i)
    return x / den


_SHAPES = {
    BoundKind.THETA_ENVELOPE: lambda s, c, x, L, o: x + s * o.const(c[0]) * x / o.lpow(L, int(c[1])),
    BoundKind.THETA_ENVELOPE_EXP: _theta_envelope_exp,
    BoundKind.THETA_SQRT: lambda s, c, x, L, o: x + s * _sqrt_terms(c, x, L, o),
    BoundKind.PI_LI_SQRT: lambda s, c, x, L, o: o.li(x) + s * _sqrt_terms(c, x, L, o),
    BoundKind.PI_RATIONAL: _pi_rational,
    BoundKind.PI_LOGPOW: lambda s, c, x, L, o: sum(
        o.const(cj) * x / o.lpow(L, j) for j, cj in enumerate(c, start=1) if cj
    ),
    BoundKind.SUM_RECIP: lambda s, c, x, L, o: _series(o.log(L) + o.const(o.B), c, L, o),
    BoundKind.SUM_LOGP: lambda s, c, x, L, o: _series(L + o.const(o.E), c, L, o),
    BoundKind.PRODUCT_MERTENS: lambda s, c, x, L, o: o.mertens(L, _series(1, c, L, o)),
    BoundKind.GAP: lambda s, c, x, L, o: x * (1 + o.const(c[0]) / o.lpow(L, int(c[1]))),
}


def shape(spec: BoundSpec, x, L, o):
    """The right-hand side of spec at x, with L = log x, in o's arithmetic."""
    s = 1 if spec.direction == "upper" else -1
    return _SHAPES[spec.kind](s, spec.coefficients, x, L, o)


class _IntervalOps:
    """eval_bound's arithmetic: outward-rounded intervals of one context."""

    B, E = analytic.constants(28)[1:]
    lpow = staticmethod(operator.pow)

    def __init__(self, ctx, prec: int):
        self.ctx, self.prec = ctx, prec
        self.log, self.exp, self.sqrt, self.pi = ctx.log, ctx.exp, ctx.sqrt, ctx.pi

    def const(self, v):
        return lift(self.ctx, v)

    def xpow(self, x, p: Fraction):
        return x ** int(p) if p.denominator == 1 else self.exp(self.const(p) * self.log(x))

    def li(self, x):
        return self.const(analytic.li(x, self.prec))

    def mertens(self, L, body):
        return self.exp(-self.ctx.euler) / L * body


def eval_bound(spec: BoundSpec, x, prec: int = DEFAULT_PREC) -> Enclosure:
    """Enclosure of the bound's right-hand side at x (x > 1)."""
    ctx = ivctx(prec)
    xv = lift(ctx, x)
    if xv.a <= 1:
        raise InvalidRangeError("bounds evaluate for x > 1 only")
    return Enclosure.from_iv(shape(spec, xv, ctx.log(xv), _IntervalOps(ctx, prec)))
