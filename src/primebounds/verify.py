"""Range verification of prime-counting bounds against sieve-exact data.

The checks stream over contiguous prime segments and test one inequality per
prime cell [p_n, p_{n+1}).  Because the compared quantities are step
functions of x (they jump only at primes) while the bounds are smooth, a
single comparison per cell covers every real x in the cell once the bound is
monotone there:

* increasing quantity (theta, pi, running sums), lower bound:
  quantity(p_n) > bound(p_{n+1}) covers the whole cell;
* increasing quantity, upper bound: bound(p_n) > quantity(p_n);
* decreasing quantity (the Mertens product), the two roles swap;
* gap claims: p_n * (1 + c/log^j p_n) > p_{n+1} certifies a prime inside
  the stated window for every real x in the cell.

Monotonicity is not assumed: each bound must carry a positivity certificate
for its derivative numerator (see proofkit.shape_on_ray) from the scan start.
Where the certificate only holds from some x* > lo -- upper bounds dip before
their stationary point -- the stretch [lo, x*) is covered by interval-cell
evaluation: the bound is evaluated over the whole cell as one enclosure and
compared against the cell's constant quantity, with bisection refinement.
That strategy needs no shape information at all, so it also serves kinds
whose derivative does not reduce to a polynomial, up to a span cap.

Most cells are decided in a float64 fast lane: per-segment running totals
are rebased on the accumulator's exact dyadic sums every 2**16 primes, so
their absolute error stays orders of magnitude below the lane's recheck
margin.  The lane is tile-major: it walks each segment in tiles of 2**16
cells, computes every power log(p)**k a tile needs once and shares it
across all claims, and reads its inputs as slice views.  Each tile sorts
every claim's cells into certain passes (only counted), certain fails and
unsure cells (both collected by index).  The exact work follows per claim:
any cell whose margin is smaller than the recheck margin is re-decided with
outward-rounded enclosures at 106 bits, retried once at 212 bits, and counted
Indeterminate if still undecided; the 64 highest certain fails are
recomputed the same way, and an exact verdict other than Fail there raises
FastLaneMismatchError.  Fail verdicts follow the conservative rule
lhs.hi <= rhs.lo; counterexamples record the compared enclosures, capped at
the 64 largest x.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp

from . import __version__, analytic, dyadic, proofkit, sieve
from .bounds import BoundKind, BoundSpec, Verdict, eval_bound
from .bounds import promote as bounds_promote
from .enclosure import DEFAULT_PREC, RETRY_PREC, Enclosure, eexp
from .errors import (
    CapacityError,
    DenominatorNonpositiveError,
    FastLaneMismatchError,
    InvalidRangeError,
    MismatchedStateError,
    NoCertificateError,
    OverlappingRangesError,
    ReportMismatchError,
    SoundnessGateError,
    UnsupportedKindError,
)
from .sieve import (
    BUDGET_LOG,
    BUDGET_QUOT,
    BUDGET_RECIP,
    DEFAULT_SEGMENT_ODDS,
    AccumulatorState,
)

__all__ = [
    "COUNTEREXAMPLE_CAP",
    "TOOL_VERSION",
    "ClaimScan",
    "Counterexample",
    "CrossingResult",
    "VerificationReport",
    "exit_code_for",
    "find_crossing",
    "merge_reports",
    "promote_verified",
    "report_from_json",
    "report_to_json",
    "reports_equivalent",
    "scan_claims",
    "verify_gap_bound",
    "verify_monotone_bound",
    "verify_running_sums",
]

TOOL_VERSION = "primebounds " + __version__

COUNTEREXAMPLE_CAP = 64
# Widest certificate-free stretch the interval-cell lane will bridge.
MAX_CELL_SPAN = 200_000
# Pair cap for kinds that have no vectorised fast lane (li-based bounds).
MAX_EXACT_PAIRS = 60_000

# Primes per exact rebase of the fast lane's running totals.
_CHUNK = 1 << 16

# Fast-lane recheck margins per quantity lane.  Anything closer to the
# boundary than this is re-decided with enclosures.  The margins sit 2-4
# orders of magnitude above the worst-case float64 drift of the lane.
_MARGIN = {
    "theta": 1e-2,
    "pi": 1e-3,
    "recip": 1e-10,
    "logp": 1e-10,
    "log1m": 1e-10,
    "gap": 1e-3,
}

_THETA_KINDS = (BoundKind.THETA_ENVELOPE, BoundKind.THETA_ENVELOPE_EXP, BoundKind.THETA_SQRT)
_PI_KINDS = (BoundKind.PI_LI_SQRT, BoundKind.PI_RATIONAL, BoundKind.PI_LOGPOW)
_SUM_KINDS = (BoundKind.SUM_RECIP, BoundKind.SUM_LOGP, BoundKind.PRODUCT_MERTENS)

_LANE_OF_KIND = {
    BoundKind.THETA_ENVELOPE: "theta",
    BoundKind.THETA_ENVELOPE_EXP: "theta",
    BoundKind.THETA_SQRT: "theta",
    BoundKind.PI_LI_SQRT: "pi",
    BoundKind.PI_RATIONAL: "pi",
    BoundKind.PI_LOGPOW: "pi",
    BoundKind.SUM_RECIP: "recip",
    BoundKind.SUM_LOGP: "logp",
    BoundKind.PRODUCT_MERTENS: "log1m",
    BoundKind.GAP: "gap",
}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _mpf_eq(a: mpmath.mpf, b: mpmath.mpf) -> bool:
    if mpmath.isnan(a) or mpmath.isnan(b):
        return False
    return a == b


@dataclass(frozen=True, eq=False)
class Counterexample:
    """One failed check: the cell base x and the two compared enclosures.

    lhs is always the exact-quantity side, rhs the bound side (for gap
    claims: lhs is the successor prime, rhs the window endpoint).
    """

    x: int
    lhs: Enclosure
    rhs: Enclosure

    def __eq__(self, other):
        if not isinstance(other, Counterexample):
            return NotImplemented
        return (
            self.x == other.x
            and _mpf_eq(self.lhs.lo, other.lhs.lo)
            and _mpf_eq(self.lhs.hi, other.lhs.hi)
            and _mpf_eq(self.rhs.lo, other.rhs.lo)
            and _mpf_eq(self.rhs.hi, other.rhs.hi)
        )

    def __hash__(self):
        return hash(self.x)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of scanning one bound over an integer range.

    checked = passes + failures + indeterminates always holds, and
    counterexamples is nonempty exactly when failures > 0 (capped at the
    COUNTEREXAMPLE_CAP largest x).  A range with range_lo == range_hi + 1 is
    the empty range (merge identity).
    """

    bound_id: str
    range_lo: int
    range_hi: int
    checked: int
    passes: int
    failures: int
    indeterminates: int
    counterexamples: tuple[Counterexample, ...] = ()
    wall_time: float = 0.0
    checkpoint_ref: Optional[str] = None

    def __post_init__(self):
        if self.range_lo > self.range_hi + 1:
            raise InvalidRangeError("report range endpoints out of order")
        if min(self.checked, self.passes, self.failures, self.indeterminates) < 0:
            raise InvalidRangeError("report counts must be nonnegative")
        if self.checked != self.passes + self.failures + self.indeterminates:
            raise InvalidRangeError("checked must equal passes + failures + indeterminates")
        if (self.failures > 0) != bool(self.counterexamples):
            raise InvalidRangeError("counterexamples must be nonempty exactly when failures > 0")
        if len(self.counterexamples) > COUNTEREXAMPLE_CAP:
            raise InvalidRangeError("too many counterexamples retained")
        xs = [c.x for c in self.counterexamples]
        if xs != sorted(xs) or len(set(xs)) != len(xs):
            raise InvalidRangeError("counterexamples must be strictly ascending in x")
        if xs and xs[-1] > self.range_hi:
            raise InvalidRangeError("counterexample beyond the scanned range")
        if self.wall_time < 0:
            raise InvalidRangeError("wall_time must be nonnegative")


def reports_equivalent(a: VerificationReport, b: VerificationReport) -> bool:
    """Equality of everything except timing and checkpoint provenance."""
    return (
        a.bound_id == b.bound_id
        and a.range_lo == b.range_lo
        and a.range_hi == b.range_hi
        and a.checked == b.checked
        and a.passes == b.passes
        and a.failures == b.failures
        and a.indeterminates == b.indeterminates
        and a.counterexamples == b.counterexamples
    )


def merge_reports(a: VerificationReport, b: VerificationReport) -> VerificationReport:
    """Combine two shard reports for the same bound over disjoint ranges.

    Counts add, the range becomes the hull, and the retained counterexamples
    are the cap's worth of largest x from either side.  Commutative by
    construction.
    """
    if a.bound_id != b.bound_id:
        raise ReportMismatchError("cannot merge reports for %s and %s" % (a.bound_id, b.bound_id))
    a_empty = a.range_lo > a.range_hi
    b_empty = b.range_lo > b.range_hi
    if not a_empty and not b_empty:
        if a.range_lo <= b.range_hi and b.range_lo <= a.range_hi:
            raise OverlappingRangesError(
                "ranges [%d, %d] and [%d, %d] overlap"
                % (a.range_lo, a.range_hi, b.range_lo, b.range_hi)
            )
        lo, hi = min(a.range_lo, b.range_lo), max(a.range_hi, b.range_hi)
    elif a_empty and b_empty:
        lo, hi = min(a.range_lo, b.range_lo), max(a.range_hi, b.range_hi)
    elif a_empty:
        lo, hi = b.range_lo, b.range_hi
    else:
        lo, hi = a.range_lo, a.range_hi
    cx = sorted(a.counterexamples + b.counterexamples, key=lambda c: c.x)
    cx = tuple(cx[-COUNTEREXAMPLE_CAP:])
    if a.checkpoint_ref is None:
        ref = b.checkpoint_ref
    elif b.checkpoint_ref is None:
        ref = a.checkpoint_ref
    else:
        ref = b.checkpoint_ref if b.range_hi >= a.range_hi else a.checkpoint_ref
    return VerificationReport(
        bound_id=a.bound_id,
        range_lo=lo,
        range_hi=hi,
        checked=a.checked + b.checked,
        passes=a.passes + b.passes,
        failures=a.failures + b.failures,
        indeterminates=a.indeterminates + b.indeterminates,
        counterexamples=cx,
        wall_time=a.wall_time + b.wall_time,
        checkpoint_ref=ref,
    )


def exit_code_for(reports: Iterable[VerificationReport]) -> int:
    """Process exit code: 0 all pass, 1 any failure, 2 any indeterminate."""
    code = 0
    for r in reports:
        if r.failures > 0:
            return 1
        if r.indeterminates > 0:
            code = 2
    return code


# ---------------------------------------------------------------------------
# exact decimal serialisation of report enclosures
# ---------------------------------------------------------------------------


def _mpf_to_str(x: mpmath.mpf) -> str:
    """Exact decimal string of a dyadic mpf (endpoints are always dyadic)."""
    if mpmath.isinf(x):
        return "inf" if x > 0 else "-inf"
    sign, man, exp, _ = x._mpf_
    if man == 0 and exp == 0:
        return "0"
    num = -man if sign else man
    if exp >= 0:
        return str(num << exp)
    k = -exp
    scaled = num * 5**k  # num / 2**k == scaled / 10**k, exactly
    neg = scaled < 0
    digits = str(abs(scaled)).zfill(k + 1)
    head, frac = digits[:-k], digits[-k:].rstrip("0")
    out = head + ("." + frac if frac else "")
    return "-" + out if neg else out


def _mpf_from_str(s: str) -> mpmath.mpf:
    if s == "inf":
        return mpmath.mpf("+inf")
    if s == "-inf":
        return mpmath.mpf("-inf")
    fr = Fraction(s)
    den = fr.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise InvalidRangeError("report endpoint %r is not a dyadic decimal" % s)
    return mpmath.mp.make_mpf(from_man_exp(fr.numerator, -k))


def _enc_to_pair(e: Enclosure) -> list[str]:
    return [_mpf_to_str(e.lo), _mpf_to_str(e.hi)]


def _enc_from_pair(pair: Sequence[str]) -> Enclosure:
    return Enclosure(_mpf_from_str(pair[0]), _mpf_from_str(pair[1]))


def report_to_json(report: VerificationReport) -> str:
    doc = {
        "bound_id": report.bound_id,
        "range": [report.range_lo, report.range_hi],
        "checked": report.checked,
        "passes": report.passes,
        "failures": report.failures,
        "indeterminates": report.indeterminates,
        "counterexamples": [
            {"x": c.x, "lhs": _enc_to_pair(c.lhs), "rhs": _enc_to_pair(c.rhs)}
            for c in report.counterexamples
        ],
        "wall_time_s": report.wall_time,
        "tool_version": TOOL_VERSION,
    }
    if report.checkpoint_ref is not None:
        doc["checkpoint_ref"] = report.checkpoint_ref
    return json.dumps(doc, indent=2, sort_keys=True)


def report_from_json(text: str) -> VerificationReport:
    doc = json.loads(text)
    cx = tuple(
        Counterexample(int(c["x"]), _enc_from_pair(c["lhs"]), _enc_from_pair(c["rhs"]))
        for c in doc["counterexamples"]
    )
    return VerificationReport(
        bound_id=doc["bound_id"],
        range_lo=int(doc["range"][0]),
        range_hi=int(doc["range"][1]),
        checked=int(doc["checked"]),
        passes=int(doc["passes"]),
        failures=int(doc["failures"]),
        indeterminates=int(doc["indeterminates"]),
        counterexamples=cx,
        wall_time=float(doc["wall_time_s"]),
        checkpoint_ref=doc.get("checkpoint_ref"),
    )


# ---------------------------------------------------------------------------
# float64 fast lane
# ---------------------------------------------------------------------------

_CONST = analytic.constants(28)
_GAMMA_F = _CONST[0].mid_float()
_B_F = _CONST[1].mid_float()
_E_F = _CONST[2].mid_float()


def _bound_float(
    spec: BoundSpec, x: np.ndarray, L: np.ndarray, pw: Callable[[float], np.ndarray]
):
    """Float64 bound values at x (log-scale for the Mertens product).

    L is log(x) and pw(k) gives L ** k; the scanner shares those powers
    across claims.  Returns (values, suspect) where suspect marks entries
    that must not be trusted (nonpositive rational denominator / product
    body); returns None when the kind has no vector lane (li-based bounds).
    """
    s = 1.0 if spec.direction == "upper" else -1.0
    c = spec.coefficients
    kind = spec.kind
    suspect = None

    if kind is BoundKind.THETA_ENVELOPE:
        vals = x + s * float(c[0]) * x / pw(int(c[1]))
    elif kind is BoundKind.THETA_ENVELOPE_EXP:
        cf, rf = float(c[0]), float(c[1])
        pref = math.sqrt(cf / (math.pi * math.sqrt(rf)))
        vals = x + s * pref * x * pw(0.25) * np.exp(-np.sqrt(L / rf))
    elif kind is BoundKind.THETA_SQRT:
        body = np.zeros_like(x)
        for i in range(0, len(c), 4):
            term = float(c[i]) * x ** float(c[i + 1]) * pw(int(c[i + 2]))
            w = int(c[i + 3])
            if w:
                term = term / math.pi**w
            body += term
        vals = x + s * body
    elif kind is BoundKind.PI_LI_SQRT:
        return None
    elif kind is BoundKind.PI_RATIONAL:
        den = L - 1.0
        for i, ai in enumerate(c, start=1):
            if ai:
                den = den - float(ai) / pw(i)
        suspect = den < 1e-6
        vals = x / np.where(suspect, 1.0, den)
    elif kind is BoundKind.PI_LOGPOW:
        vals = np.zeros_like(x)
        for j, cj in enumerate(c, start=1):
            if cj:
                vals = vals + float(cj) * x / pw(j)
    elif kind is BoundKind.SUM_RECIP:
        vals = np.log(L) + _B_F
        for i in range(0, len(c), 2):
            vals = vals + float(c[i]) / pw(int(c[i + 1]))
    elif kind is BoundKind.SUM_LOGP:
        vals = L + _E_F
        for i in range(0, len(c), 2):
            vals = vals + float(c[i]) / pw(int(c[i + 1]))
    elif kind is BoundKind.PRODUCT_MERTENS:
        body = np.ones_like(L)
        for i in range(0, len(c), 2):
            body = body + float(c[i]) / pw(int(c[i + 1]))
        suspect = body < 1e-9
        vals = -_GAMMA_F - np.log(L) + np.log(np.where(suspect, 1.0, body))
    elif kind is BoundKind.GAP:
        vals = x * (1.0 + float(c[0]) / pw(int(c[1])))
    else:  # pragma: no cover - registry kinds are exhaustive
        raise UnsupportedKindError("no fast lane for kind %s" % kind)
    return vals, suspect


def _running(values: np.ndarray, base: float) -> np.ndarray:
    """Running totals of values on top of base, rebased exactly per chunk."""
    out = np.empty(values.size, dtype=np.float64)
    acc = base
    for a in range(0, values.size, _CHUNK):
        b = min(a + _CHUNK, values.size)
        np.cumsum(values[a:b], out=out[a:b])
        out[a:b] += acc
        v, _ = dyadic.scaled_sum(values[a:b])
        acc += math.ldexp(float(v), -dyadic.SCALE_BITS)
    return out


# ---------------------------------------------------------------------------
# exact quantity enclosures
# ---------------------------------------------------------------------------


def _dyadic_enclosure(v: int, b: int, negate: bool = False) -> Enclosure:
    lo, hi = v - b, v + b
    if negate:
        lo, hi = -hi, -lo
    return Enclosure.from_dyadic(lo, hi, dyadic.SCALE_BITS)


# Error-budget multiplier of each lane's per-prime terms.
_LANE_BUDGET = {
    "theta": BUDGET_LOG,
    "recip": BUDGET_RECIP,
    "logp": BUDGET_QUOT,
    "log1m": BUDGET_QUOT,
}

_LANE_STATE_FIELDS = {
    "theta": ("theta_v", "theta_b"),
    "recip": ("recip_v", "recip_b"),
    "logp": ("logp_v", "logp_b"),
    "log1m": ("log1m_v", "log1m_b"),
}


class _ExactPrefix:
    """Exact dyadic running totals of one lane's per-prime terms."""

    def __init__(self, lane: str, before: AccumulatorState, values: np.ndarray):
        vf, bf = _LANE_STATE_FIELDS[lane]
        self._values = values
        self._base = (getattr(before, vf), getattr(before, bf))
        self._mult = _LANE_BUDGET[lane]
        self._v, self._b = self._base
        self._idx = 0  # terms [0, _idx) are folded in

    def at(self, idx: int) -> tuple[int, int]:
        """Exact (value, budget) of the lane total through term idx."""
        if idx + 1 < self._idx:
            self._v, self._b = self._base
            self._idx = 0
        if self._idx <= idx:
            v, b = dyadic.scaled_sum(self._values[self._idx : idx + 1])
            self._v += v
            self._b += b * self._mult
            self._idx = idx + 1
        return self._v, self._b


def _lane_quantity_fn(lane: str, v: int, b: int) -> Callable[[int], Enclosure]:
    """Quantity enclosure factory from exact dyadic lane totals."""
    if lane == "log1m":
        inner = _dyadic_enclosure(v, b, negate=True)
        return lambda prec: eexp(inner, prec)
    enc = _dyadic_enclosure(v, b)
    return lambda prec: enc


def _state_quantity(lane: str, state: AccumulatorState, prec: int) -> Enclosure:
    if lane == "pi":
        return Enclosure.from_value(state.pi)
    if lane == "theta":
        return state.theta
    if lane == "recip":
        return state.sum_recip
    if lane == "logp":
        return state.sum_logp
    return eexp(state.sum_log1m, prec)


# ---------------------------------------------------------------------------
# exact cell and pair verdicts
# ---------------------------------------------------------------------------


def _top() -> Enclosure:
    return Enclosure.top()


def _pair_verdict(
    spec: BoundSpec,
    lhs_fn: Callable[[int], Enclosure],
    eval_x: int,
    strict: bool = True,
):
    """Enclosure verdict of one pair check.

    lhs_fn(prec) gives the exact-quantity enclosure; the bound is evaluated
    at eval_x.  For gap claims lhs is the successor prime and the pass test
    is rhs > lhs (>= when strict is False, the boundary-window form).
    Returns (verdict, lhs, rhs).
    """
    lower = spec.direction == "lower"
    gap = spec.kind is BoundKind.GAP
    lhs = rhs = None
    for prec in (DEFAULT_PREC, RETRY_PREC):
        lhs = lhs_fn(prec)
        try:
            rhs = eval_bound(spec, eval_x, prec)
        except DenominatorNonpositiveError:
            if lower:
                return Verdict.Pass, lhs, _top()
            return Verdict.Fail, lhs, _top()
        if gap:
            if (rhs.certainly_gt(lhs) if strict else rhs.certainly_ge(lhs)):
                return Verdict.Pass, lhs, rhs
            if rhs.certainly_lt(lhs):
                return Verdict.Fail, lhs, rhs
        elif lower:
            if lhs.certainly_gt(rhs):
                return Verdict.Pass, lhs, rhs
            if lhs.certainly_le(rhs):
                return Verdict.Fail, lhs, rhs
        else:
            if rhs.certainly_gt(lhs):
                return Verdict.Pass, lhs, rhs
            if rhs.certainly_le(lhs):
                return Verdict.Fail, lhs, rhs
    return Verdict.Indeterminate, lhs, rhs


def _point_denominator_bad(spec: BoundSpec, x) -> bool:
    try:
        eval_bound(spec, x, DEFAULT_PREC)
    except DenominatorNonpositiveError:
        return True
    return False


# Interval-cell bisection floor and evaluation budget per cell.
_CELL_MIN_WIDTH = 2.0**-16
_CELL_EVAL_BUDGET = 10_000


def _split_subcell(a, b):
    """Halve [a, b] exactly; integer midpoints while wide, dyadic floats below.

    Returns the two halves, or None when the subcell cannot be refined
    further (width floor reached, or endpoints too large for exact floats).
    """
    if isinstance(a, int) and isinstance(b, int) and b - a > 1:
        m = (a + b) // 2
        return (a, m), (m, b)
    fa, fb = float(a), float(b)
    if fb > 2.0**52 or fb - fa < _CELL_MIN_WIDTH:
        return None
    m = (fa + fb) / 2.0
    return (fa, m), (m, fb)


def _cell_verdict(
    spec: BoundSpec,
    q_fn: Optional[Callable[[int], Enclosure]],
    base: int,
    succ: int,
):
    """Verdict of the claim over the whole real cell [base, succ).

    The quantity is constant on the cell, so the bound is evaluated over
    integer subintervals as interval enclosures and compared against it,
    bisecting undecided subcells.  Needs no monotonicity information.
    Gap claims compare against the successor prime (q_fn is ignored).
    Returns (verdict, lhs, rhs).
    """
    lower = spec.direction == "lower"
    gap = spec.kind is BoundKind.GAP
    q = last_rhs = None
    for prec in (DEFAULT_PREC, RETRY_PREC):
        q = Enclosure.from_value(succ) if gap else q_fn(prec)
        stack = [(base, succ)]
        budget = _CELL_EVAL_BUDGET
        undecided = False
        failed = None
        while stack:
            a, b = stack.pop()
            budget -= 1
            if budget < 0:
                undecided = True
                break
            try:
                rhs = eval_bound(spec, Enclosure(a, b), prec)
            except DenominatorNonpositiveError:
                if lower:
                    continue  # holds trivially where the denominator dips
                if _point_denominator_bad(spec, a) or (
                    b < succ and _point_denominator_bad(spec, b)
                ):
                    failed = _top()
                    break
                halves = _split_subcell(a, b)
                if halves is None:
                    undecided = True
                    last_rhs = _top()
                    continue
                stack.append(halves[1])
                stack.append(halves[0])
                continue
            last_rhs = rhs
            if gap:
                if rhs.certainly_ge(q):
                    continue
                if rhs.certainly_lt(q):
                    failed = rhs
                    break
            elif lower:
                if rhs.certainly_lt(q):
                    continue
                if rhs.certainly_ge(q):
                    failed = rhs
                    break
            else:
                if rhs.certainly_gt(q):
                    continue
                if rhs.certainly_le(q):
                    failed = rhs
                    break
            halves = _split_subcell(a, b)
            if halves is None:
                undecided = True
                continue
            stack.append(halves[1])
            stack.append(halves[0])
        if failed is not None:
            return Verdict.Fail, q, failed
        if not undecided:
            return Verdict.Pass, q, last_rhs
    return Verdict.Indeterminate, q, last_rhs


# ---------------------------------------------------------------------------
# scan plans
# ---------------------------------------------------------------------------


@dataclass
class _Plan:
    spec: BoundSpec
    lane: str
    lower: bool
    eval_at_succ: bool
    delta: float
    pair_start: Optional[int]  # smallest x with a shape certificate; None = cells only
    exact_pairs: bool  # no vector lane; every pair decided by enclosures


def _cert_holds(spec: BoundSpec, x: int) -> bool:
    try:
        return proofkit.shape_on_ray(spec, x).holds()
    except NoCertificateError:
        return False


def _min_certified_start(spec: BoundSpec, lo: int, hi: int) -> Optional[int]:
    """Least integer in [lo, hi] from which the shape certificate holds."""
    if _cert_holds(spec, lo):
        return lo
    bad, probe = lo, max(lo * 2, 4)
    while probe <= hi:
        if _cert_holds(spec, probe):
            break
        bad, probe = probe, probe * 2
    else:
        return None
    good = probe
    while good - bad > 1:
        mid = (bad + good) // 2
        if _cert_holds(spec, mid):
            good = mid
        else:
            bad = mid
    return good


def _make_plan(spec: BoundSpec, lo: int, hi: int) -> _Plan:
    if spec.direction == "two_sided":
        raise UnsupportedKindError("two-sided templates must be split before verification")
    lane = _LANE_OF_KIND[spec.kind]
    lower = spec.direction == "lower"
    sense_increasing = spec.kind is not BoundKind.PRODUCT_MERTENS
    eval_at_succ = (lower == sense_increasing) and spec.kind is not BoundKind.GAP
    exact_pairs = spec.kind is BoundKind.PI_LI_SQRT
    try:
        pair_start = _min_certified_start(spec, lo, hi)
    except UnsupportedKindError:
        pair_start = None
    if pair_start is None:
        if hi - lo > MAX_CELL_SPAN:
            raise NoCertificateError(
                "no monotonicity certificate for %s on [%d, %d] and the range "
                "is too wide for interval-cell evaluation" % (spec.id, lo, hi)
            )
    elif pair_start - lo > MAX_CELL_SPAN:
        raise NoCertificateError(
            "certificate for %s only holds from %d; the uncovered stretch "
            "from %d is too wide for interval-cell evaluation" % (spec.id, pair_start, lo)
        )
    if exact_pairs:
        est = int((hi - lo) / max(math.log(lo), 1.0)) + 64
        if est > MAX_EXACT_PAIRS:
            raise CapacityError(
                "%s has no fast lane and [%d, %d] holds ~%d pairs (cap %d)"
                % (spec.id, lo, hi, est, MAX_EXACT_PAIRS)
            )
    return _Plan(
        spec=spec,
        lane=lane,
        lower=lower,
        eval_at_succ=eval_at_succ,
        delta=_MARGIN[lane],
        pair_start=pair_start,
        exact_pairs=exact_pairs,
    )


# ---------------------------------------------------------------------------
# the scanning engine
# ---------------------------------------------------------------------------


@dataclass
class _Capsule:
    """Compact record of one failing cell, kept for crossing resolution."""

    base: int
    succ: int
    q_fn: Optional[Callable[[int], Enclosure]]  # None for gap claims


@dataclass
class _Tally:
    checked: int = 0
    passes: int = 0
    failures: int = 0
    indeterminates: int = 0

    def add(self, verdict: Verdict):
        self.checked += 1
        if verdict is Verdict.Pass:
            self.passes += 1
        elif verdict is Verdict.Fail:
            self.failures += 1
        else:
            self.indeterminates += 1


class _SpecScan:
    """Per-spec mutable scan state."""

    def __init__(self, plan: _Plan):
        self.plan = plan
        self.tally = _Tally()
        self.cx: deque[Counterexample] = deque(maxlen=COUNTEREXAMPLE_CAP)
        self.capsule: Optional[_Capsule] = None
        # transient within a segment: (idx, succ) of the highest failing pair
        self.seg_fail: Optional[tuple[int, int]] = None

    def record(self, verdict: Verdict, x: int, lhs, rhs, capsule: Optional[_Capsule]):
        self.tally.add(verdict)
        if verdict is Verdict.Fail:
            self.cx.append(Counterexample(x, lhs, rhs))
            if capsule is not None:
                self.capsule = capsule


class _SegmentData:
    """Shared per-segment arrays, built lazily per lane."""

    def __init__(self, before: Optional[AccumulatorState], primes: np.ndarray):
        self.before = before
        self.p = primes
        self.pf = primes.astype(np.float64)
        self.logs = np.log(self.pf)
        self._values: dict[str, np.ndarray] = {}
        self._runs: dict[str, np.ndarray] = {}
        self._prefixes: dict[str, _ExactPrefix] = {}

    def values(self, lane: str) -> np.ndarray:
        """Per-prime terms of a summed lane, built once per segment."""
        out = self._values.get(lane)
        if out is None:
            if lane == "theta":
                out = self.logs
            elif lane == "recip":
                out = 1.0 / self.pf
            elif lane == "logp":
                out = self.logs / self.pf
            else:
                out = -np.log1p(-self.values("recip"))
            self._values[lane] = out
        return out

    def run(self, lane: str) -> np.ndarray:
        out = self._runs.get(lane)
        if out is None:
            if lane == "pi":
                out = self.before.pi + np.arange(1, self.p.size + 1, dtype=np.float64)
            else:
                vf, _bf = _LANE_STATE_FIELDS[lane]
                base = math.ldexp(float(getattr(self.before, vf)), -dyadic.SCALE_BITS)
                out = _running(self.values(lane), base)
                if lane == "log1m":
                    out = -out
            self._runs[lane] = out
        return out

    def prefix(self, lane: str) -> _ExactPrefix:
        pre = self._prefixes.get(lane)
        if pre is None:
            pre = _ExactPrefix(lane, self.before, self.values(lane))
            self._prefixes[lane] = pre
        return pre

    def quantity_fn(self, lane: str, idx: int) -> Callable[[int], Enclosure]:
        if lane == "pi":
            value = self.before.pi + idx + 1
            return lambda prec: Enclosure.from_value(value)
        v, b = self.prefix(lane).at(idx)
        return _lane_quantity_fn(lane, v, b)


def _iter_segment_primes(lo, hi, state, segment_odds, jobs, need_state):
    """Yield (before, primes, after); states are None on the prime-only path."""
    if need_state:
        for before, seg, after in sieve.accumulate_range(state, hi, segment_odds, jobs):
            yield before, seg.primes, after
    else:
        base = sieve.base_primes(math.isqrt(hi))
        for seg in sieve.segments(lo, hi, segment_odds, base):
            yield None, seg.primes, None


def _scan(
    specs: Sequence[BoundSpec],
    range_lo: int,
    range_hi: int,
    state: Optional[AccumulatorState],
    segment_odds: int,
    jobs: int,
) -> list[_SpecScan]:
    if range_lo < 2 or range_hi < range_lo:
        raise InvalidRangeError("need 2 <= range_lo <= range_hi")
    if not specs:
        raise InvalidRangeError("nothing to verify")

    plans = [_make_plan(spec, range_lo, range_hi) for spec in specs]
    lanes = {p.lane for p in plans}
    need_state = lanes != {"gap"}

    if need_state:
        if state is None:
            state = AccumulatorState.initial()
        if state.x + 1 > range_lo:
            raise MismatchedStateError(
                "state is already at %d, past range start %d" % (state.x, range_lo)
            )
        if state.anchored and lanes - {"pi", "gap"}:
            raise MismatchedStateError("anchored states carry pi only")
        for _, _, after in sieve.accumulate_range(state, range_lo - 1, segment_odds, jobs):
            state = after

    scans = [_SpecScan(p) for p in plans]
    pending: Optional[tuple[int, Optional[AccumulatorState]]] = None
    saw_prime = False

    for before, primes, after in _iter_segment_primes(
        range_lo, range_hi, state, segment_odds, jobs, need_state
    ):
        if primes.size == 0:
            continue
        data = _SegmentData(before, primes)
        first = int(primes[0])

        if pending is not None:
            _resolve_pending(scans, pending, first)
            pending = None
        elif not saw_prime:
            _leading_window(scans, range_lo, first, state)
        saw_prime = True

        _scan_segment(scans, data, range_hi)

        for scan in scans:
            _compact_capsule(scan, data)

        pending = (int(primes[-1]), after)

    if pending is not None:
        _resolve_pending(scans, pending, sieve.next_prime(range_hi))
    elif not saw_prime:
        _leading_window(scans, range_lo, sieve.next_prime(range_hi), state)

    return scans


def _leading_window(
    scans: list[_SpecScan],
    range_lo: int,
    first_prime: int,
    state: Optional[AccumulatorState],
):
    """Settle the partial cell [range_lo, first prime) when range_lo is composite.

    Quantities are constant there (state holds their exact totals through
    range_lo - 1), so one check covers the stretch: gap claims test that the
    window of range_lo itself reaches the first prime (non-strict), the rest
    run the usual pair or interval-cell comparison with x = range_lo.
    """
    if first_prime == range_lo:
        return
    for scan in scans:
        plan = scan.plan
        spec = plan.spec
        gap = spec.kind is BoundKind.GAP
        if gap:
            q_fn = None
        else:
            q_fn = lambda prec, s=state, l=plan.lane: _state_quantity(l, s, prec)
        if plan.pair_start is None or range_lo < plan.pair_start:
            verdict, lhs, rhs = _cell_verdict(spec, q_fn, range_lo, first_prime)
        elif gap:
            verdict, lhs, rhs = _pair_verdict(
                spec, lambda prec, s=first_prime: Enclosure.from_value(s), range_lo, strict=False
            )
        else:
            eval_x = first_prime if plan.eval_at_succ else range_lo
            verdict, lhs, rhs = _pair_verdict(spec, q_fn, eval_x)
        scan.record(verdict, range_lo, lhs, rhs, _Capsule(range_lo, first_prime, q_fn))


def _resolve_pending(scans: list[_SpecScan], pending, succ: int):
    base, after = pending
    for scan in scans:
        plan = scan.plan
        spec = plan.spec
        gap = spec.kind is BoundKind.GAP
        if gap:
            q_fn = None
        else:
            q_fn = lambda prec, s=after, l=plan.lane: _state_quantity(l, s, prec)
        capsule = _Capsule(base, succ, q_fn)
        if plan.pair_start is None or base < plan.pair_start:
            verdict, lhs, rhs = _cell_verdict(spec, q_fn, base, succ)
        elif gap:
            verdict, lhs, rhs = _pair_verdict(
                spec, lambda prec, s=succ: Enclosure.from_value(s), base
            )
        else:
            eval_x = succ if plan.eval_at_succ else base
            verdict, lhs, rhs = _pair_verdict(spec, q_fn, eval_x)
        scan.record(verdict, base, lhs, rhs, capsule)


def _compact_capsule(scan: _SpecScan, data: _SegmentData):
    """Materialise the segment-local failing cell into a compact capsule."""
    if scan.seg_fail is None:
        return
    idx, succ = scan.seg_fail
    scan.seg_fail = None
    base = int(data.p[idx])
    if scan.plan.spec.kind is BoundKind.GAP:
        scan.capsule = _Capsule(base, succ, None)
    elif scan.plan.lane == "pi":
        value = data.before.pi + idx + 1
        scan.capsule = _Capsule(base, succ, lambda prec, v=value: Enclosure.from_value(v))
    else:
        v, b = data.prefix(scan.plan.lane).at(idx)
        scan.capsule = _Capsule(base, succ, _lane_quantity_fn(scan.plan.lane, v, b))


def _exact_pair(plan: _Plan, data: _SegmentData, i: int):
    """Enclosure verdict of the pair check on cell [p[i], p[i + 1]).

    Returns (verdict, base, succ, lhs, rhs).
    """
    spec = plan.spec
    base, succ = int(data.p[i]), int(data.p[i + 1])
    if spec.kind is BoundKind.GAP:
        verdict, lhs, rhs = _pair_verdict(
            spec, lambda prec: Enclosure.from_value(succ), base
        )
    else:
        eval_x = succ if plan.eval_at_succ else base
        verdict, lhs, rhs = _pair_verdict(spec, data.quantity_fn(plan.lane, i), eval_x)
    return verdict, base, succ, lhs, rhs


def _triage(fast, data: _SegmentData, cut: int):
    """Phase 1: sort the fast-lane pairs into certain pass, fail and unsure.

    fast holds (scan, start) for every claim whose pairs [start, cut) run
    in the float lane.  The pairs are walked in tiles of _CHUNK bases; each
    tile's log-powers are shared by all claims and every input is a slice
    view.  Certain passes go straight to the tallies; returns, per claim,
    the segment indices of its certain fails and of its unsure pairs.
    """
    pf, logs = data.pf, data.logs
    found = [([], []) for _ in fast]
    for t0 in range(0, cut, _CHUNK):
        t1 = min(t0 + _CHUNK, cut)
        # one extra entry so that successor-evaluated claims share the tile;
        # a slice of a power array equals the power of the slice, bitwise
        tile_pow = functools.cache(logs[t0 : t1 + 1].__pow__)
        for (scan, start), (fails, unsure) in zip(fast, found):
            a = max(start, t0)
            if a >= t1:
                continue
            plan = scan.plan
            e = 1 if plan.eval_at_succ else 0
            sl = slice(a - t0 + e, t1 - t0 + e)
            fvals, suspect = _bound_float(
                plan.spec, pf[a + e : t1 + e], logs[a + e : t1 + e], lambda k: tile_pow(k)[sl]
            )
            if plan.spec.kind is BoundKind.GAP:
                margin = fvals - pf[a + 1 : t1 + 1]
            else:
                q = data.run(plan.lane)[a:t1]
                margin = (q - fvals) if plan.lower else (fvals - q)

            certain_pass = margin > plan.delta
            certain_fail = margin < -plan.delta
            if suspect is not None:
                certain_pass &= ~suspect
                certain_fail &= ~suspect
            n_pass = int(np.count_nonzero(certain_pass))
            scan.tally.checked += n_pass
            scan.tally.passes += n_pass
            fails.append(np.flatnonzero(certain_fail) + a)
            unsure.append(np.flatnonzero(~(certain_pass | certain_fail)) + a)
    return [(np.concatenate(f), np.concatenate(u)) for f, u in found]


def _settle(scan: _SpecScan, data: _SegmentData, fail_idx, unsure_idx):
    """Phase 2: the exact work on one claim's certain fails and unsure pairs."""
    plan = scan.plan
    fail_records = []
    if fail_idx.size:
        scan.tally.checked += fail_idx.size
        scan.tally.failures += fail_idx.size
        # retained counterexamples are recomputed exactly so that the
        # recorded enclosures do not depend on segmentation or rebasing
        for i in fail_idx[-COUNTEREXAMPLE_CAP:]:
            verdict, base, _succ, lhs, rhs = _exact_pair(plan, data, int(i))
            if verdict is not Verdict.Fail:
                raise FastLaneMismatchError(
                    "%s: the float lane failed x = %d beyond its margin, but the "
                    "exact recheck says %s" % (plan.spec.id, base, verdict.name)
                )
            fail_records.append((base, lhs, rhs))
        i_last = int(fail_idx[-1])
        scan.seg_fail = (i_last, int(data.p[i_last + 1]))

    for i in unsure_idx:
        i = int(i)
        verdict, base, succ, lhs, rhs = _exact_pair(plan, data, i)
        scan.tally.add(verdict)
        if verdict is Verdict.Fail:
            fail_records.append((base, lhs, rhs))
            if scan.seg_fail is None or scan.seg_fail[0] < i:
                scan.seg_fail = (i, succ)

    if fail_records:
        fail_records.sort(key=lambda r: r[0])
        for base, lhs, rhs in fail_records[-COUNTEREXAMPLE_CAP:]:
            scan.cx.append(Counterexample(base, lhs, rhs))


def _scan_segment(scans, data: _SegmentData, range_hi: int):
    p = data.p
    m = p.size
    if m < 2:
        return
    # pairs fully inside the segment: bases p[0..m-2], successors p[1..m-1];
    # the final prime is carried as pending by the caller.
    cut = m - 1
    fast = []
    for scan in scans:
        plan = scan.plan
        spec = plan.spec
        start = plan.pair_start

        # --- interval-cell stretch (no certificate below pair_start) ------
        cell_cut = 0
        if start is None:
            cell_cut = cut
        elif int(p[0]) < start:
            cell_cut = int(np.searchsorted(p[:cut], start, side="left"))
        for i in range(cell_cut):
            base, succ = int(p[i]), int(p[i + 1])
            q_fn = None if spec.kind is BoundKind.GAP else data.quantity_fn(plan.lane, i)
            verdict, lhs, rhs = _cell_verdict(spec, q_fn, base, succ)
            if verdict is Verdict.Fail:
                scan.seg_fail = (i, succ)
            scan.record(verdict, base, lhs, rhs, None)
        if cell_cut >= cut:
            continue

        # --- exact-pair path for kinds without a vector lane ---------------
        if plan.exact_pairs:
            for i in range(cell_cut, cut):
                verdict, base, succ, lhs, rhs = _exact_pair(plan, data, i)
                if verdict is Verdict.Fail:
                    scan.seg_fail = (i, succ)
                scan.record(verdict, base, lhs, rhs, None)
            continue

        fast.append((scan, cell_cut))

    # --- float fast lane, then the exact work it leaves -------------------
    for (scan, _), (fail_idx, unsure_idx) in zip(fast, _triage(fast, data, cut)):
        _settle(scan, data, fail_idx, unsure_idx)


# ---------------------------------------------------------------------------
# public scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossingResult:
    """Largest observed violation of a claim and the threshold it implies.

    largest_failing_x is the base prime of the highest failing cell (the
    scanned x for a gap window).  implied_threshold is the least integer from
    which the claim holds on that cell and beyond: the successor prime when
    the quantity's jump resolves the failure, otherwise the bisected integer
    crossing of the bound through the cell's constant quantity.
    """

    bound_id: str
    search_lo: int
    search_hi: int
    largest_failing_x: int
    implied_threshold: Optional[int]
    failures: int
    checked: int


@dataclass(frozen=True)
class ClaimScan:
    report: VerificationReport
    crossing: Optional[CrossingResult]


def _least_passing_integer(
    spec: BoundSpec, q_fn: Optional[Callable[[int], Enclosure]], base: int, succ: int
) -> Optional[int]:
    """Least integer t in (base, succ] whose check passes, by bisection.

    Used when the binding endpoint of a failing cell is its base: the
    violation dies out at an interior crossing of the bound through the
    cell's constant quantity.
    """
    gap = spec.kind is BoundKind.GAP
    if gap:
        q_fn = lambda prec: Enclosure.from_value(succ)

    def passes(t: int) -> bool:
        verdict, _, _ = _pair_verdict(spec, q_fn, t, strict=not gap)
        return verdict is Verdict.Pass

    if not passes(succ):
        return None
    bad, good = base, succ
    while good - bad > 1:
        mid = (bad + good) // 2
        if passes(mid):
            good = mid
        else:
            bad = mid
    return good


def _resolve_crossing(
    scan: _SpecScan, range_lo: int, range_hi: int
) -> Optional[CrossingResult]:
    if scan.tally.failures == 0 or scan.capsule is None:
        return None
    plan = scan.plan
    cap = scan.capsule
    if plan.eval_at_succ:
        implied = cap.succ
    else:
        implied = _least_passing_integer(plan.spec, cap.q_fn, cap.base, cap.succ)
    return CrossingResult(
        bound_id=plan.spec.id,
        search_lo=range_lo,
        search_hi=range_hi,
        largest_failing_x=cap.base,
        implied_threshold=implied,
        failures=scan.tally.failures,
        checked=scan.tally.checked,
    )


def scan_claims(
    specs: Sequence[BoundSpec],
    range_lo: int,
    range_hi: int,
    *,
    state: Optional[AccumulatorState] = None,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    jobs: int = 1,
    checkpoint_ref: Optional[str] = None,
    resolve_crossings: bool = True,
) -> tuple[ClaimScan, ...]:
    """Scan several claims over one shared pass of [range_lo, range_hi].

    Each claim gets its own report; when it failed anywhere and
    resolve_crossings is set, the largest failing cell is resolved into a
    CrossingResult with the threshold the data implies.
    """
    t0 = time.monotonic()
    scans = _scan(specs, range_lo, range_hi, state, segment_odds, jobs)
    wall = time.monotonic() - t0
    out = []
    for scan in scans:
        report = VerificationReport(
            bound_id=scan.plan.spec.id,
            range_lo=range_lo,
            range_hi=range_hi,
            checked=scan.tally.checked,
            passes=scan.tally.passes,
            failures=scan.tally.failures,
            indeterminates=scan.tally.indeterminates,
            counterexamples=tuple(scan.cx),
            wall_time=wall,
            checkpoint_ref=checkpoint_ref,
        )
        crossing = _resolve_crossing(scan, range_lo, range_hi) if resolve_crossings else None
        out.append(ClaimScan(report=report, crossing=crossing))
    return tuple(out)


def _require_kinds(spec: BoundSpec, kinds, op: str):
    if spec.kind not in kinds:
        raise UnsupportedKindError("%s does not handle kind %s" % (op, spec.kind))


def verify_monotone_bound(
    spec: BoundSpec,
    range_lo: int,
    range_hi: int,
    *,
    state: Optional[AccumulatorState] = None,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    jobs: int = 1,
    checkpoint_ref: Optional[str] = None,
) -> VerificationReport:
    """Pair-check a theta or pi bound over every prime cell in the range.

    Requires a shape certificate from range_lo (or bridges the uncovered
    stretch with interval-cell evaluation); raises NoCertificateError when
    neither is possible and CapacityError past the sieve's 2**53 capacity.
    """
    _require_kinds(spec, _THETA_KINDS + _PI_KINDS, "verify_monotone_bound")
    (claim,) = scan_claims(
        [spec],
        range_lo,
        range_hi,
        state=state,
        segment_odds=segment_odds,
        jobs=jobs,
        checkpoint_ref=checkpoint_ref,
        resolve_crossings=False,
    )
    return claim.report


def verify_gap_bound(
    spec: BoundSpec,
    range_lo: int,
    range_hi: int,
    *,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    jobs: int = 1,
    checkpoint_ref: Optional[str] = None,
) -> VerificationReport:
    """Check a prime-gap window claim for every prime in the range.

    When range_lo is composite the leading stretch [range_lo, next prime) is
    settled by one boundary-window check: the window of range_lo itself must
    already reach the next prime.
    """
    _require_kinds(spec, (BoundKind.GAP,), "verify_gap_bound")
    (claim,) = scan_claims(
        [spec],
        range_lo,
        range_hi,
        segment_odds=segment_odds,
        jobs=jobs,
        checkpoint_ref=checkpoint_ref,
        resolve_crossings=False,
    )
    return claim.report


def verify_running_sums(
    specs: Sequence[BoundSpec],
    range_lo: int,
    range_hi: int,
    *,
    state: Optional[AccumulatorState] = None,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    jobs: int = 1,
    checkpoint_ref: Optional[str] = None,
) -> tuple[VerificationReport, ...]:
    """Check running-sum and Mertens-product bounds in one shared pass.

    Increasing sums test lower bounds at the successor prime and upper
    bounds at the base; the decreasing product swaps the two roles.  Product
    comparisons happen on the linear scale through exp of the accumulated
    log-sum enclosure.
    """
    for spec in specs:
        _require_kinds(spec, _SUM_KINDS, "verify_running_sums")
    claims = scan_claims(
        specs,
        range_lo,
        range_hi,
        state=state,
        segment_odds=segment_odds,
        jobs=jobs,
        checkpoint_ref=checkpoint_ref,
        resolve_crossings=False,
    )
    return tuple(c.report for c in claims)


def promote_verified(spec: BoundSpec, report: VerificationReport) -> BoundSpec:
    """Stamp a spec verified_here on the strength of a clean report.

    The soundness gate: reports carrying any failure or any indeterminate
    verdict never confer verified status, and the report must describe the
    same bound.
    """
    if report.bound_id != spec.id:
        raise ReportMismatchError(
            "report is for %s, not %s" % (report.bound_id, spec.id)
        )
    if report.failures > 0 or report.indeterminates > 0:
        raise SoundnessGateError(
            "%s: %d failures, %d indeterminates; only clean reports promote"
            % (spec.id, report.failures, report.indeterminates)
        )
    return bounds_promote(spec)


def find_crossing(
    spec: BoundSpec,
    search_hi: int,
    search_lo: int = 2,
    *,
    state: Optional[AccumulatorState] = None,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    jobs: int = 1,
) -> Optional[CrossingResult]:
    """Largest x in [search_lo, search_hi] at which the claim fails, or None.

    The scan walks every prime cell in the window, so a claim that holds on
    the whole window returns None; otherwise the result carries the highest
    failing cell and the integer threshold it implies.
    """
    (claim,) = scan_claims(
        [spec],
        search_lo,
        search_hi,
        state=state,
        segment_odds=segment_odds,
        jobs=jobs,
        resolve_crossings=True,
    )
    return claim.crossing
