"""Exact side-condition certificates for the bound machinery.

Several bounds in the registry are justified by auxiliary facts that are
cheap to state but easy to get wrong numerically: a polynomial in y = log x
stays positive on a ray, a rational bound is monotone past its threshold, a
zero-counting expression stays below a target, a threshold is the integer
where a comparison turns.  This module certifies those facts with exact
arithmetic (Sturm sequences over integer coefficients, rational witnesses)
or directed interval arithmetic, and returns machine-checkable certificate
objects rather than bare booleans.

Contents:

* ExactPolynomial  -- dense univariate polynomials over Fraction.
* sturm_positive_on_ray -- decide sign of a polynomial on [a, infinity)
  with an exact rational refutation witness on failure.  Every decision
  reads one fact, memoised per polynomial: a rational just below its last
  sign change, isolated by bisection on one Sturm chain, that of the
  squarefree part with integer coefficients (_last_sign_change).
* shape_on_ray -- reduce monotonicity of a registry bound (in the variable
  x, for x >= a) to ray-positivity of explicit polynomials in y = log x,
  then certify them; square-root upper envelopes termwise.  In
  _shape_polys each kind states its comparison function once, as sparse
  (degree, coefficient) terms in y, and one exact rule derives its
  polynomials: _d differentiates a term list, _times multiplies two and
  _poly clears the negative powers of y.
* least_integer -- the least integer of a window where a monotone
  predicate holds, by bisection: the one threshold search of the package.
  Every threshold it reproduces is an integer: certified starts, implied
  thresholds and Dudek's n0.
* certified_start -- the least x in a window from which shape_on_ray
  holds, found by least_integer on the same last sign changes.
* growth_identity_holds -- prop3.11.lower stays below thm3.8.lower, by the
  same rule on their registry coefficients.
* zero_count_bound -- enclosure of an explicit upper bound for the number
  of zeta zeros with imaginary part in (0, T].
* check_lemma_preconditions -- verify 4.92*sqrt(x0/log x0) <= T.
* dudek_thresholds -- compare two threshold expressions attached to an
  integer parameter m, in log space, with n0 found by least_integer on
  interval signs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

from .bounds import BoundKind, BoundSpec, Verdict, as_fraction, lookup
from .enclosure import (
    DEFAULT_PREC,
    RETRY_PREC,
    Enclosure,
    elog,
    ivctx,
    lift,
)
from .errors import (
    InvalidRangeError,
    NoCertificateError,
    UnsupportedKindError,
    ZeroPolynomialError,
)

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# Exact polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactPolynomial:
    """Univariate polynomial with Fraction coefficients, ascending order.

    coefficients[i] multiplies y**i.  The zero polynomial is not
    representable; constructing one raises ZeroPolynomialError so that
    degree and leading coefficient are always well defined.
    """

    coefficients: Tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = tuple(as_fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        object.__setattr__(self, "coefficients", coeffs)
        # the Sturm caches key on polynomials: hash the Fractions once
        object.__setattr__(self, "_hash", hash(coeffs))

    def __hash__(self) -> int:
        return self._hash

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading(self) -> Fraction:
        return self.coefficients[-1]

    # -- evaluation ---------------------------------------------------------

    def eval_exact(self, y: Rational) -> Fraction:
        yf = as_fraction(y)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * yf + c
        return acc


# ---------------------------------------------------------------------------
# Sturm sequences and ray positivity
# ---------------------------------------------------------------------------
#
# The chains work on integer coefficients, highest degree first.

IntPoly = Tuple[int, ...]
IntChain = Tuple[IntPoly, ...]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _primitive(coeffs: Sequence[int]) -> IntPoly:
    """coeffs without leading zeros, divided by their positive content."""
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    g = math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


@functools.cache
def _ints(poly: ExactPolynomial) -> IntPoly:
    """The primitive integer multiple of poly, with the same sign."""
    den = math.lcm(*(c.denominator for c in poly.coefficients))
    return _primitive(
        [c.numerator * (den // c.denominator) for c in reversed(poly.coefficients)]
    )


def _pdivmod(a: IntPoly, b: IntPoly) -> Tuple[IntPoly, IntPoly]:
    """Quotient and remainder of a by b (deg a >= deg b), both primitive.

    Pseudo-division scaled by |lc b|^k with k = deg a - deg b + 1:
    |lc b|^k a = q b + r, so q and r are positive multiples of the exact
    quotient and remainder.  The zero remainder is ().
    """
    lead, s = abs(b[0]), _sign(b[0])
    rem, quo = list(a), []
    for i in range(len(a) - len(b) + 1):
        c = rem[i] * s
        quo = [q * lead for q in quo] + [c]
        rem = [v * lead for v in rem]
        for j, bj in enumerate(b):
            rem[i + j] -= c * bj
    return _primitive(quo), _primitive(rem)


def _pgcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd of a and b (deg a >= deg b), with a positive leading coefficient."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return a if a[0] > 0 else tuple(-c for c in a)


def _derivative(p: IntPoly) -> IntPoly:
    n = len(p) - 1
    return _primitive([c * (n - i) for i, c in enumerate(p[:-1])])


def _sign_at(coeffs: Sequence[int], a: Fraction) -> int:
    """Sign of the integer polynomial (highest degree first) at a = n/d.

    d > 0, so it is the sign of d^deg P(n/d) = sum c_i n^i d^(deg - i),
    which integer Horner gives without any Fraction arithmetic.
    """
    n, d = a.numerator, a.denominator
    acc, dk = 0, 1
    for c in coeffs:
        acc = acc * n + c * dk
        dk *= d
    return _sign(acc)


def _variations(signs: Sequence[int]) -> int:
    count = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain: IntChain, a: Fraction) -> int:
    return _variations([_sign_at(p, a) for p in chain])


def _variations_at_inf(chain: IntChain) -> int:
    return _variations([_sign(p[0]) for p in chain])


@functools.cache
def _squarefree_chain(poly: ExactPolynomial) -> IntChain:
    """Sturm chain of poly / gcd(poly, poly'), whose roots are poly's distinct roots.

    The division matters: the chain of a polynomial with a repeated root
    vanishes at that root, so it could not count roots above every a.  The
    first member has the sign of poly's leading coefficient.
    """
    p = _ints(poly)
    if len(p) == 1:
        return (p,)
    part = _pdivmod(p, _pgcd(p, _derivative(p)))[0]
    chain = [part, _derivative(part)]
    while len(chain[-1]) > 1:
        chain.append(tuple(-c for c in _pdivmod(chain[-2], chain[-1])[1]))
    return tuple(chain)


def count_distinct_roots_above(poly: ExactPolynomial, a: Rational) -> int:
    """Number of distinct real roots of poly in the open ray (a, infinity).

    Counted on the Sturm chain of poly's squarefree part, which holds at
    every a: a root at a itself is not counted.
    """
    chain = _squarefree_chain(poly)
    return _variations_at(chain, as_fraction(a)) - _variations_at_inf(chain)


def root_magnitude_bound(poly: ExactPolynomial) -> Fraction:
    """Cauchy bound: every real root has absolute value below the result."""
    lead = abs(poly.leading)
    biggest = max(abs(c) for c in poly.coefficients[:-1]) if poly.degree else 0
    return Fraction(1) + Fraction(biggest) / lead


@functools.cache
def _last_sign_change(poly: ExactPolynomial) -> Optional[Fraction]:
    """A rational l below poly's last sign change r with no root of poly in [l, r).

    r is the largest root of odd multiplicity; None means there is none, so
    poly never changes sign.  Walks poly's distinct roots from the top,
    B the Cauchy bound: bisection isolates the largest remaining root in
    (lo, hi], keeping both ends off the roots, on the one squarefree chain.
    The root has odd multiplicity exactly when poly's signs at lo and hi
    differ; then l = lo, else the walk goes on in (-B, lo].
    """
    chain, ints = _squarefree_chain(poly), _ints(poly)
    bottom = -root_magnitude_bound(poly)
    v_bottom = _variations_at(chain, bottom)
    lo, hi = bottom, -bottom
    v_lo, v_hi = v_bottom, _variations_at(chain, hi)
    while v_lo > v_hi:
        while v_lo - v_hi > 1:
            mid = (lo + hi) / 2
            while _sign_at(ints, mid) == 0:
                mid = (lo + mid) / 2
            v_mid = _variations_at(chain, mid)
            if v_mid > v_hi:
                lo, v_lo = mid, v_mid
            else:
                hi, v_hi = mid, v_mid
        if _sign_at(ints, lo) != _sign_at(ints, hi):
            return lo
        lo, hi, v_lo, v_hi = bottom, lo, v_bottom, v_lo
    return None


@dataclass(frozen=True)
class PositivityCertificate:
    """Outcome of a ray-positivity decision for a polynomial in y.

    verdict is one of:
      "positive"    -- poly(y) > 0 for every y >= ray_start
      "nonnegative" -- poly(y) >= 0 for every y >= ray_start, with equality
                       attained somewhere on the ray
      "refuted"     -- witness is a rational point >= ray_start with
                       poly(witness) < 0 (value_at_witness records the
                       exact negative value)

    distinct_roots_beyond counts distinct real roots in (ray_start,
    infinity); root_bound is a rational beyond every real root.
    """

    polynomial: ExactPolynomial
    ray_start: Fraction
    verdict: str
    value_at_start: Fraction
    distinct_roots_beyond: int
    root_bound: Fraction
    witness: Optional[Fraction] = None
    value_at_witness: Optional[Fraction] = None

    def holds(self) -> bool:
        return self.verdict in ("positive", "nonnegative")


def _deciding_point(poly: ExactPolynomial, a: Fraction) -> Fraction:
    """The one point of [a, infinity) whose sign decides poly on that ray.

    poly >= 0 on the ray exactly when poly >= 0 at this point; otherwise it
    is a witness.  Let r be poly's last sign change and l the rational below
    it that _last_sign_change gives.  With a positive leading coefficient
    poly >= 0 on the ray exactly when a >= r, that is when poly(max(a, l))
    >= 0.  With a negative one poly is negative past its roots, so the point
    is a when poly(a) < 0 and a root bound otherwise.
    """
    if poly.leading > 0:
        last = _last_sign_change(poly)
        return a if last is None else max(a, last)
    return a if _sign_at(_ints(poly), a) < 0 else max(root_magnitude_bound(poly), a + 1)


def sturm_positive_on_ray(
    poly: ExactPolynomial, ray_start: Rational
) -> PositivityCertificate:
    """Decide the sign of poly on the ray [ray_start, infinity), exactly.

    The verdict reads poly at _deciding_point, which is the witness when the
    ray is refuted.  No rounding anywhere: the verdict is a theorem about the
    rational coefficients.  When the verdict is "refuted" the certificate
    carries a rational witness with its exact negative value, so the
    refutation can be re-checked independently by plain Fraction arithmetic.
    """
    a = as_fraction(ray_start)
    value_at_start = poly.eval_exact(a)
    bound = max(root_magnitude_bound(poly), a + 1)
    witness = _deciding_point(poly, a)
    value = poly.eval_exact(witness)
    roots_beyond = count_distinct_roots_above(poly, a)
    refuted = value < 0
    if refuted:
        verdict = "refuted"
    elif value_at_start == 0 or roots_beyond:
        verdict = "nonnegative"
    else:
        verdict = "positive"
    return PositivityCertificate(
        polynomial=poly,
        ray_start=a,
        verdict=verdict,
        value_at_start=value_at_start,
        distinct_roots_beyond=roots_beyond,
        root_bound=bound,
        witness=witness if refuted else None,
        value_at_witness=value if refuted else None,
    )


# ---------------------------------------------------------------------------
# Monotonicity of registry bounds, reduced to ray positivity in y = log x
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityCertificate:
    """Monotonicity of a registry bound's comparison function for x >= a.

    sense is "increasing" or "decreasing" (the canonical direction for the
    bound's kind).  basis explains how it was certified: "sturm-ray" means
    derivative_numerator is a polynomial in y = log x that is positive on
    [log_ray_start, infinity); "termwise" means every term of the bound is
    individually monotone in the certified sense and no polynomial is
    needed.  For rational-denominator bounds, denominator_certificate
    records positivity of the denominator polynomial (required first)."""

    bound_id: str
    x_start: Fraction
    log_ray_start: Fraction
    sense: str
    basis: str
    certificate: Optional[PositivityCertificate]
    denominator_certificate: Optional[PositivityCertificate] = None

    def holds(self) -> bool:
        if self.denominator_certificate is not None:
            if not self.denominator_certificate.holds():
                return False
        if self.basis == "termwise":
            return True
        return self.certificate is not None and self.certificate.holds()


def canonical_sense(kind: BoundKind) -> str:
    """Monotone sense of kind's comparison function, which sets the binding
    endpoint of each prime cell in verify."""
    if kind is BoundKind.PRODUCT_MERTENS:
        return "decreasing"
    return "increasing"


def log_ray_start(x_start: Rational, prec: int = DEFAULT_PREC) -> Fraction:
    """Exact rational lower bound on log(x_start)."""
    xs = as_fraction(x_start)
    if xs <= 1:
        raise InvalidRangeError("ray start must exceed 1")
    return Fraction(*elog(xs, prec).lo_rational())


Terms = Sequence[Tuple[int, Rational]]


def _d(terms: Terms) -> Terms:
    """d/dy of sum c * y^d over the (d, c) pairs of terms."""
    return [(d - 1, d * c) for d, c in terms]


def _times(a: Terms, b: Terms) -> Terms:
    """The product of two term lists: (d + e, c * f) for every pair."""
    return [(d + e, c * f) for d, c in a for e, f in b]


_MINUS = ((0, -1),)


def _poly(terms: Terms) -> ExactPolynomial:
    """y^k * sum c * y^d over the (d, c) pairs of terms; a degree may repeat.

    k >= 0 is the least power that clears every negative degree the terms
    state, zero coefficients included, so a polynomial's power of y is read
    from the shape it was derived from, not from what cancels.
    """
    degrees = [d for d, _c in terms] + [0]
    low = min(degrees)
    coeffs = [Fraction(0)] * (1 + max(degrees) - low)
    for d, c in terms:
        coeffs[d - low] += c
    return ExactPolynomial(tuple(coeffs))


def _denominator(coeffs: Sequence[Fraction]) -> Terms:
    """D = y - 1 - sum a_i / y^i of the PI_RATIONAL bound x / D."""
    return [(1, 1), (0, -1)] + [(-i, -a) for i, a in enumerate(coeffs, 1)]


def _shape_polys(spec: BoundSpec) -> Tuple[ExactPolynomial, ...]:
    """Polynomials in y = log x whose positivity on a ray certifies spec's shape.

    Each kind states its comparison function once, as (degree, coefficient)
    terms in y, and the one rule derives the polynomials from it: _d
    differentiates, _times multiplies and _poly clears the negative powers.
    With dy/dx = 1/x, a bound x f(y) has d/dx = f + f' and x / D has
    d/dx = (D - D') / D^2.  A derivative numerator is the comparison
    function's derivative times a positive factor, a power of y and for
    PI_RATIONAL D^2 (times -1 for PRODUCT_MERTENS, which decreases).
    PI_RATIONAL gives its denominator first, then its derivative numerator.
    Square-root upper envelopes with nonnegative coefficients give none:
    they are monotone termwise, since each summand c * x^p * y^q / pi^w
    with c, p > 0 and q >= 0 is increasing in x, as is the leading x or
    li(x) term.  Kinds with no certificate raise UnsupportedKindError.
    """
    kind, coeffs = spec.kind, spec.coefficients
    if kind in (BoundKind.THETA_SQRT, BoundKind.PI_LI_SQRT):
        if spec.direction != "upper":
            raise UnsupportedKindError(
                "square-root lower bounds have no termwise certificate"
            )
        for c, p, q, _w in zip(*[iter(coeffs)] * 4):
            if c < 0 or p <= 0 or q < 0:
                raise UnsupportedKindError(
                    "termwise rule needs c >= 0, p > 0, q >= 0 in every term"
                )
        return ()
    if kind is BoundKind.PI_RATIONAL:
        # x / D: D, cleared, must be positive, and D - D' has the
        # derivative's sign.
        den = _denominator(coeffs)
        return _poly(den), _poly(den + _times(_d(den), _MINUS))
    if kind is BoundKind.PI_LOGPOW:
        # x f(y), f = sum c_j / y^j.
        f = [(-j, c) for j, c in enumerate(coeffs, 1)]
    elif kind in (BoundKind.THETA_ENVELOPE, BoundKind.GAP):
        # x f(y), f = 1 + s c / y^k; a gap's bound x (1 + c / y^k) is the
        # upper one, s = 1.
        s = 1 if spec.direction == "upper" else -1
        f = [(0, 1), (-int(coeffs[1]), s * coeffs[0])]
    elif kind in (BoundKind.SUM_RECIP, BoundKind.SUM_LOGP, BoundKind.PRODUCT_MERTENS):
        # series = sum c_i / y^p_i after the term (0, 0) for the constant B
        # or E: its value never reaches a derivative, but the degree -1 of
        # its derivative reaches _poly.
        series = [(0, 0)] + [(-int(p), c) for c, p in zip(coeffs[::2], coeffs[1::2])]
        if kind is BoundKind.SUM_RECIP:
            # d/dy (log y + B + series)
            return (_poly([(-1, 1)] + _d(series)),)
        if kind is BoundKind.SUM_LOGP:
            # d/dy (y + E + series)
            return (_poly(_d([(1, 1)] + series)),)
        # exp(-gamma) (1 + series) / y decreases where -((1 + series) / y)' > 0.
        body = _times([(0, 1)] + series, [(-1, 1)])
        return (_poly(_times(_d(body), _MINUS)),)
    else:
        raise UnsupportedKindError(f"no derivative polynomial for kind {kind.name}")
    return (_poly(f + _d(f)),)


def _certify(
    spec: BoundSpec,
    x_start: Rational,
    polys: Sequence[ExactPolynomial],
    prec: int,
) -> MonotonicityCertificate:
    """Certify each of polys on [log_ray_start(x_start), infinity) in turn,
    stopping at the first that fails."""
    xs = as_fraction(x_start)
    a = log_ray_start(xs, prec)
    certs = []
    for poly in polys:
        certs.append(sturm_positive_on_ray(poly, a))
        if not certs[-1].holds():
            break
    den = certs.pop(0) if spec.kind is BoundKind.PI_RATIONAL else None
    return MonotonicityCertificate(
        bound_id=spec.id,
        x_start=xs,
        log_ray_start=a,
        sense=canonical_sense(spec.kind),
        basis="sturm-ray" if polys else "termwise",
        certificate=certs[0] if certs else None,
        denominator_certificate=den,
    )


def shape_on_ray(
    spec: BoundSpec, x_start: Rational, prec: int = DEFAULT_PREC
) -> MonotonicityCertificate:
    """Certify monotonicity of spec's comparison function for x >= x_start.

    Reduces the derivative sign to ray positivity of explicit polynomials in
    y = log x (_shape_polys) and certifies them with exact Sturm analysis on
    [a, infinity), a a rational lower bound for log(x_start); that ray
    contains log x for every x >= x_start.  For rational-denominator bounds
    the denominator polynomial is certified first.  Square-root upper
    envelopes are certified termwise; kinds with no certificate raise
    UnsupportedKindError.
    """
    return _certify(spec, x_start, _shape_polys(spec), prec)


def least_integer(holds: Callable[[int], bool], lo: int, hi: int) -> Optional[int]:
    """Least integer t in (lo, hi] with holds(t), by bisection.

    holds must be monotone: false up to some integer and true from it on.
    lo is taken to fail and is never tested; None when holds(hi) is false.
    """
    if not holds(hi):
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def certified_start(spec: BoundSpec, lo: int, hi: int) -> Optional[int]:
    """Least integer x in [lo, hi] from which shape_on_ray(spec, x) holds.

    None when spec's kind has no certificate or it fails at hi; lo for the
    termwise kinds.  A certificate polynomial P is >= 0 on [a, infinity)
    exactly when P >= 0 at _deciding_point(P, a); that predicate is exact and
    monotone in a, so bisecting it over x, with a = log_ray_start(x), gives
    the least x.  The certificate there is then built once to confirm it.
    """
    try:
        polys = _shape_polys(spec)
    except UnsupportedKindError:
        return None

    def holds(x: int) -> bool:
        a = log_ray_start(x)
        return all(_sign_at(_ints(poly), _deciding_point(poly, a)) >= 0 for poly in polys)

    x = lo if not polys or holds(lo) else least_integer(holds, lo, hi)
    if x is None:
        return None
    if not shape_on_ray(spec, x).holds():
        raise NoCertificateError(
            "%s: the last sign changes put the certified start at %d, but the "
            "certificate there does not hold" % (spec.id, x)
        )
    return x


def growth_identity_holds() -> bool:
    """Whether prop3.11.lower's x f(y) stays below thm3.8.lower's x / D(y).

    f = sum c_j / y^j and D come from the registry.  Where D > 0 the claim
    is f D < 1, and y^14 (1 - f D) = y^14 - (y^7 R(y)) (y^6 S(y)), with
    R = y f and S = D, has only positive coefficients, so it holds for
    every y > 0.
    """
    den = _denominator(lookup("thm3.8.lower").coefficients)
    minus_f = [(-j, -c) for j, c in enumerate(lookup("prop3.11.lower").coefficients, 1)]
    return all(c > 0 for c in _poly([(0, 1)] + _times(minus_f, den)).coefficients)


# ---------------------------------------------------------------------------
# Zero-count bound and lemma preconditions
# ---------------------------------------------------------------------------

_E_LOWER = Fraction("2.718281828459045235360287471")


def zero_count_bound(T, prec: int = DEFAULT_PREC) -> Enclosure:
    """Enclosure of the explicit zero-count majorant

        T/(2 pi) * log(T/(2 pi e)) + 7/8
          + 0.112 log T + 0.278 log log T + 2.51 + 0.2/T,

    an upper bound for the number of zeta zeros with imaginary part in
    (0, T], valid for T >= e.
    """
    ctx = ivctx(prec)
    tv = lift(ctx, T)
    if not tv.b >= lift(ctx, _E_LOWER).a:
        raise InvalidRangeError("zero_count_bound requires T >= e")
    two_pi = 2 * ctx.pi
    log_t = ctx.log(tv)
    main = tv / two_pi * (log_t - ctx.log(two_pi) - 1)
    tail = (
        lift(ctx, Fraction(7, 8))
        + lift(ctx, Fraction(112, 1000)) * log_t
        + lift(ctx, Fraction(278, 1000)) * ctx.log(log_t)
        + lift(ctx, Fraction(251, 100))
        + lift(ctx, Fraction(1, 5)) / tv
    )
    return Enclosure.from_iv(main + tail)


def check_lemma_preconditions(
    x0, T, prec: int = DEFAULT_PREC
) -> Verdict:
    """Verdict on the precondition  4.92 * sqrt(x0 / log x0) <= T.

    Pass when the inequality is certain, Fail when its negation is certain,
    Indeterminate when the enclosures still overlap after one retry at
    higher precision.
    """
    for p in (prec, RETRY_PREC):
        ctx = ivctx(p)
        xv = lift(ctx, x0)
        if not xv.a > 1:
            raise InvalidRangeError("x0 must exceed 1")
        tv = lift(ctx, T)
        lhs = lift(ctx, Fraction(123, 25)) * ctx.sqrt(xv / ctx.log(xv))
        if lhs.b <= tv.a:
            return Verdict.Pass
        if lhs.a > tv.b:
            return Verdict.Fail
    return Verdict.Indeterminate


# ---------------------------------------------------------------------------
# Threshold comparison in log space
# ---------------------------------------------------------------------------


class ThresholdComparison(NamedTuple):
    """Result of comparing two m-indexed thresholds in log space.

    n0_log is an enclosure of log of the largest integer n with
    198.2 n / log(n)**4 <= m**5; n1_log encloses the log of
    exp(1000 * exp(19.807) / m).  verdict is Pass when n1_log is certainly
    below n0_log (the required ordering), Fail when certainly above,
    Indeterminate otherwise.
    """

    n0_log: Enclosure
    n1_log: Enclosure
    verdict: Verdict


def dudek_thresholds(m: int, prec: int = DEFAULT_PREC) -> ThresholdComparison:
    """Compare the two threshold expressions attached to the integer m.

    Let n0(m) = max{ n integer : 1982 n <= 10 m^5 log(n)^4 } and
    n1(m) = exp(1000 * exp(19.807) / m).  g(n) = 1982 n - 10 m^5 log(n)^4
    is convex for n > e^3 and g(lo) <= 0 at lo = floor(10 m^5 / 1982), so
    g > 0 from one integer on, which least_integer finds in (lo, lo^2],
    deciding each sign on intervals at prec bits beyond n's own.  n0 is
    the integer below it when g is certainly negative there; otherwise n0
    is only known to lie in [lo, that integer) and the verdict is
    Indeterminate.  Then n1 <= n0 is decided on the enclosures of the logs.
    """
    if not isinstance(m, int) or m < 1000:
        raise InvalidRangeError("m must be an integer >= 1000")

    def sign(n: int) -> int:
        """The certain sign of g(n), 0 when undecided."""
        ctx = ivctx(prec + n.bit_length())
        g = 1982 * n - 10 * m**5 * ctx.log(lift(ctx, n)) ** 4
        return (g.a > 0) - (g.b < 0)

    # g(lo^2) > 0, as lo > 16 (1 + 1/lo) log(lo)^4 for m >= 1000
    lo = 10 * m**5 // 1982
    hi = least_integer(lambda n: sign(n) > 0, lo, lo * lo) or lo * lo
    exact = sign(hi - 1) < 0
    if exact:
        lo = hi - 1
    p = prec + hi.bit_length()
    n0_log = Enclosure(elog(lo, p).lo, elog(hi - 1, p).hi)
    ctx = ivctx(p)
    n1_iv = lift(ctx, Fraction(1000, m)) * ctx.exp(lift(ctx, Fraction(19807, 1000)))
    n1_log = Enclosure.from_iv(n1_iv)
    verdict = Verdict.Indeterminate
    if exact and n1_log.certainly_lt(n0_log):
        verdict = Verdict.Pass
    elif exact and n1_log.certainly_gt(n0_log):
        verdict = Verdict.Fail
    return ThresholdComparison(n0_log, n1_log, verdict)
