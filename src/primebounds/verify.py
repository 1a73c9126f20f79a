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
* gap claims are upper bounds on the successor prime, the cell's quantity:
  p_n * (1 + c/log^j p_n) >= p_{n+1} certifies a prime inside the stated
  window (x, x(1 + c/log^j x)] for every real x in the cell.

Every exact verdict comes from one rule, _decide, applied to the quantity
enclosure q and the bound enclosure b.  A lower bound passes on q > b and
fails on q <= b; an upper bound passes on b > q and fails on b <= q; a
relation counts only when it holds for every point of both enclosures, and
anything else is Indeterminate.  So a bound that touches the quantity fails,
except a gap window, which is closed at its end: gap claims pass on b >= q
and fail on b < q.

Monotonicity is not assumed: each bound must carry a positivity certificate
for its derivative numerator (see proofkit.shape_on_ray).  The certificate
holds from the least x* in the range whose log (a rational lower bound of
it) lies at or past the last sign change of each certificate polynomial;
proofkit.certified_start bisects over x for x*, one log_ray_start per step
(482 of them to plan the 22 desk claims over [2, 10^8]), and confirms it by
building the certificate there.  One routine, _check_cell, decides every
exactly checked cell.  It evaluates the bound over the cell as interval
enclosures and compares them against the cell's constant quantity,
bisecting undecided subcells.  That needs no shape information at all, so
it covers the stretch [lo, x*) -- upper bounds dip before their stationary
point, and a rational pi bound x/D, evaluated as it stands, is negative
where its denominator D < 0 and blows up just past D's root -- and kinds
whose derivative does not reduce to a polynomial, up to a span cap.  From
x* on the bound is monotone, so the cell shrinks to the degenerate cell at
its binding endpoint above, one point evaluation.

Every bound value comes from one shape definition per kind (bounds.shape)
with two backends: eval_bound evaluates it on outward-rounded intervals for
every exact verdict, and _bound_float on float64 arrays for the fast lane.

The segments run over (range_lo, q], q the prime after range_hi.  Row 0
of each is the base carried in from before it -- range_lo, then the
previous segment's last prime -- its primes follow, and every row but the
last is the base of one cell.  So every cell, the segment-straddling and
range-end ones included, is one row of a segment; q is only a successor.

The summed lanes (theta, sum 1/p, sum log p / p, sum log(1 - 1/p)) are
sieve's: it defines their terms and sums each SUM_CHUNK = 2**16 primes of
a segment exactly once (PrimeSegment.sums).  The exact quantity at a row
is the exact state through the segment's base plus the partial sum of its
chunk and the few terms after it.

Most cells are decided in a float64 fast lane.  Its running sums restart
at every chunk from the correctly rounded exact partial sum, so float
drift never carries from one chunk to the next.  One rule decides the
lane's cells, applied to runs of them: the runs start as the grid of
_BLOCK = 128 cells clipped to the lane's cells, and undecided runs are
halved.  From the fast lane's start on, the shape certificate proves the
bound monotone (for rational pi bounds also the denominator positive), and
the quantities -- the prime count, running sums of positive terms, and the
successor prime of a gap claim -- are monotone too, the float running sums
included, as no run straddles a chunk.  So over a run the margin (quantity
minus bound for a lower bound, bound or window end minus quantity for an
upper one) lies between a worst and a best margin read off its first and
last cell.  A run passes whole when its worst margin exceeds tol, a bound
on the float error of its ends (see _EPS, which the certified start keeps
sound), and fails whole when its best margin is below -tol; otherwise it
is halved, and an undecided cell is unsure.  Certain
passes are only counted; certain fails and unsure cells are collected by
index.  The exact work follows per claim: any unsure cell is re-decided
with outward-rounded enclosures at 106 bits, retried once at 212 bits, and
counted Indeterminate if still undecided.  Certain fails are only counted.
Each claim keeps its 64 highest failing cells with their exact quantities
as plain integers, and once the scan ends those the fast lane failed get
their enclosures and are re-decided the same way; an exact verdict other
than Fail raises FastLaneMismatchError.  So the cross-check confirms
exactly the retained counterexamples, whatever the segmentation.
Counterexamples record the compared enclosures.

A claim's result never depends on which other claims are scanned with it.
So scan_claims plans every claim, folds the state up to range_lo once (on
sieve.pi_theta_at's pool), then scans the claims in up to two groups by
what the sieve must supply: the summed lanes need each segment's exact
sums, the pi and gap lanes only its primes.  One rule, _carried, decides
what the prefix's and each group's fold carries, and each group walks
sieve.segments and folds its state by sieve.accumulate.  When there are two
groups and sieve.worker_count allows two processes for the scan's segment
spans, each group streams its segments, confirms its fails and resolves its
crossings in a forked process; otherwise all claims form one group here.
Either way the results come back in the order of the claims, identical.

scan_claims is the one public scan entry point.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__, analytic, bounds, dyadic, proofkit, sieve
from .bounds import BoundKind, BoundSpec, Verdict, eval_bound
from .enclosure import DEFAULT_PREC, RETRY_PREC, Enclosure, eexp
from .errors import (
    CapacityError,
    FastLaneMismatchError,
    InvalidRangeError,
    MismatchedStateError,
    NoCertificateError,
    OverlappingRangesError,
    ReportMismatchError,
)
from .sieve import DEFAULT_SEGMENT_ODDS, SUM_CHUNK, AccumulatorState, PrimeSegment

__all__ = [
    "COUNTEREXAMPLE_CAP",
    "TOOL_VERSION",
    "ClaimScan",
    "Counterexample",
    "CrossingResult",
    "VerificationReport",
    "exit_code_for",
    "merge_reports",
    "report_to_json",
    "reports_equivalent",
    "scan_claims",
]

TOOL_VERSION = "primebounds " + __version__

COUNTEREXAMPLE_CAP = 64
# Widest certificate-free stretch the interval-cell lane will bridge.
MAX_CELL_SPAN = 200_000

# Cells per run that the fast lane first tries to decide from its two end
# cells.  A power of two below SUM_CHUNK, so that no run straddles a rebase
# of the running sums.
_BLOCK = 1 << 7

# The fast lane's one tolerance: a run passes when its worst margin exceeds
# tol = _EPS * (max|big| + max|small|) over the ends read in one _sides
# call, and fails when its best margin is below -tol.  That is sound when
# at each end the float bound f and quantity q together err by at most
# _EPS (|f| + |q|) from any point of their exact enclosures.  In units of
# u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms, 3.1):
# * the pi count and the gap successor are exact below 2**53;
# * a running sum adds fewer than 2**16 positive terms to the correctly
#   rounded exact total of its chunk: (2**16 + 1) |q|, plus the terms'
#   budgets (see sieve), at most 2 * BUDGET_QUOT |q| = 32 |q|;
# * bounds.shape is at most 64 float operations, each within one ulp, 2u
#   (libm within 0.69 ulp, see the tests): 2**7 times its terms' magnitudes,
#   which stay below 2**8 (|f| + |q|).  Only the PI_RATIONAL denominator
#   and the Mertens body cancel far, and the fast lane starts where their
#   terms' magnitudes are at most 2**8 times them (proofkit._CANCELLATION).
#   A lower envelope such as x - g cancels only where q is near g.
# * o.li (_FloatOps.li) sums li's positive series gamma + log y + sum
#   y**k / (k k!), y = log x, each term the last times y * (k / (k + 1)**2),
#   up to the first k >= 2y + 4 with t_k <= u * total, past which the terms
#   at least halve: n < 2**7 terms below 2**53, a tail below t_k.  The libm
#   log's 2u * y moves li by 2u * x / li(x) < 2**7 u, term k carries 3k
#   roundings and the sum n + 2: within 2**10 u of li(x) (40 u measured).
#   The fast lane reads li only in upper shapes li + g, g >= 0 (no lower
#   one is certified): 2**10 u |f|, and the few operations on top keep it
#   within 2**15 u.
# So f and q err by under (2**16 + 2**15 + 33) u, which leaves 2**17 u =
# _EPS room for the rounding of tol and of the 106-bit enclosures.
_EPS = 2.0**-36

# The lanes whose quantities need prime counts only, no exact sums.
_COUNT_LANES = {"pi", "gap"}

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


@dataclass(frozen=True)
class Counterexample:
    """One failed check: the cell base x and the two compared enclosures.

    lhs is always the exact-quantity side, rhs the bound side (for gap
    claims: lhs is the successor prime, rhs the window endpoint).
    """

    x: int
    lhs: Enclosure
    rhs: Enclosure


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
        if xs and not self.range_lo <= xs[0] <= xs[-1] <= self.range_hi:
            raise InvalidRangeError("counterexample outside the scanned range")
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


def report_to_json(report: VerificationReport) -> str:
    doc = {
        "bound_id": report.bound_id,
        "range": [report.range_lo, report.range_hi],
        "checked": report.checked,
        "passes": report.passes,
        "failures": report.failures,
        "indeterminates": report.indeterminates,
        "counterexamples": [
            {"x": c.x, "lhs": list(c.lhs.decimal_pair()), "rhs": list(c.rhs.decimal_pair())}
            for c in report.counterexamples
        ],
        "wall_time_s": report.wall_time,
        "tool_version": TOOL_VERSION,
    }
    if report.checkpoint_ref is not None:
        doc["checkpoint_ref"] = report.checkpoint_ref
    return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# float64 fast lane
# ---------------------------------------------------------------------------


class _FloatOps:
    """float64 arithmetic of the fast lane for bounds.shape; the Mertens
    product is on its lane's log scale."""

    const = staticmethod(float)
    log, exp, sqrt, pi = np.log, np.exp, np.sqrt, math.pi
    lpow = staticmethod(operator.pow)
    gamma, B, E = (e.mid_float() for e in analytic.constants(28))

    @staticmethod
    def xpow(x, p):
        return x ** float(p)

    def mertens(self, L, body):
        return -self.gamma - np.log(L) + np.log(body)

    def li(self, x):
        """li(x) by the positive series of analytic.li (see _EPS)."""
        y = np.log(x)
        total, term, k, top = self.gamma + np.log(y) + y, y, 1, 2 * np.max(y) + 4
        while k < top or (term > 2.0**-53 * total).any():
            term = term * y * (k / (k + 1) ** 2)
            total, k = total + term, k + 1
        return total


def _bound_float(spec: BoundSpec, x: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Float64 bound values at x, L = log(x) (log-scale for the Mertens
    product); read only from spec's certified start (see _EPS)."""
    return bounds.shape(spec, x, L, _FloatOps())


# ---------------------------------------------------------------------------
# the comparison rule and the cell check
# ---------------------------------------------------------------------------


def _decide(spec: BoundSpec, lhs: Enclosure, rhs: Enclosure) -> Verdict:
    """The one comparison rule: exact quantity lhs against bound enclosure rhs.

    Lower bounds pass on lhs > rhs and fail on lhs <= rhs; upper bounds pass
    on rhs > lhs and fail on rhs <= lhs.  For gap claims lhs is the successor
    prime and rhs the window endpoint; the window is closed, so they pass on
    rhs >= lhs and fail on rhs < lhs.  A relation holds only when it holds
    for every point of both enclosures; otherwise Indeterminate.
    """
    if spec.direction == "lower":
        passed, failed = lhs.certainly_gt(rhs), lhs.certainly_le(rhs)
    elif spec.kind is BoundKind.GAP:
        passed, failed = rhs.certainly_ge(lhs), rhs.certainly_lt(lhs)
    else:
        passed, failed = rhs.certainly_gt(lhs), rhs.certainly_le(lhs)
    if passed:
        return Verdict.Pass
    return Verdict.Fail if failed else Verdict.Indeterminate


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


def _enclose(lane: str, q, prec: int) -> Enclosure:
    """The enclosure at prec of a lane's exact quantity q, which is plain
    integers (see _SegmentData.quantity): a count or a prime as is, the
    scaled (value, budget) of a summed lane as its dyadic interval, and the
    Mertens product as the exponential of its log-scale sum."""
    if lane in _COUNT_LANES:
        return Enclosure.from_value(q)
    v, b = q
    if lane == "log1m":
        return eexp(Enclosure.from_dyadic(-(v + b), b - v, dyadic.SCALE_BITS), prec)
    return Enclosure.from_dyadic(v - b, v + b, dyadic.SCALE_BITS)


def _check_cell(plan: _Plan, base: int, succ: int, q):
    """Exact verdict of the claim on the cell [base, succ): (verdict, lhs, rhs).

    q is the cell's constant quantity as plain integers.  From plan.pair_start on
    the shape certificate makes the bound monotone, so the cell is decided
    as the degenerate cell at its binding endpoint: succ when
    plan.eval_at_succ, else base.  Below it the bound is evaluated over the
    whole cell, as interval enclosures of integer (then dyadic) subcells,
    bisecting the undecided ones, which needs no shape information.  A
    degenerate cell [x, x] is the point x, and its bound is evaluated at the
    integer.  A subcell that _decide fails fails the cell at once;
    undecided at 106 bits, the cell is retried once at 212.

    A rational pi bound x/D is evaluated as it stands.  Where D < 0 on a
    subcell its value is negative there, so a lower bound passes and an
    upper bound fails; where D's enclosure straddles 0 the quotient is
    (-inf, inf) and the subcell is split, until the part just past D's root,
    where x/D is large, fails a lower bound.
    """
    if plan.pair_start is not None and base >= plan.pair_start:
        base = succ = succ if plan.eval_at_succ else base
    spec = plan.spec
    for prec in (DEFAULT_PREC, RETRY_PREC):
        lhs = _enclose(plan.lane, q, prec)
        stack = [(base, succ)]
        budget = _CELL_EVAL_BUDGET
        undecided = False
        while stack and budget > 0:
            a, b = stack.pop()
            budget -= 1
            rhs = eval_bound(spec, a if a == b else Enclosure(a, b), prec)
            verdict = _decide(spec, lhs, rhs)
            if verdict is Verdict.Fail:
                return Verdict.Fail, lhs, rhs
            if verdict is Verdict.Pass:
                continue
            halves = _split_subcell(a, b)
            if halves is None:
                undecided = True
            else:
                stack.extend(reversed(halves))
        if not (stack or undecided):
            return Verdict.Pass, lhs, rhs
    return Verdict.Indeterminate, lhs, rhs


# ---------------------------------------------------------------------------
# scan plans
# ---------------------------------------------------------------------------


@dataclass
class _Plan:
    spec: BoundSpec
    lane: str
    lower: bool
    eval_at_succ: bool
    pair_start: Optional[int]  # smallest x with a shape certificate; None = cells only


def _make_plan(spec: BoundSpec, lo: int, hi: int) -> _Plan:
    pair_start = proofkit.certified_start(spec, lo, hi)
    # the stretch below the certificate runs on interval cells alone
    uncovered = hi if pair_start is None else pair_start
    if uncovered - lo > MAX_CELL_SPAN:
        raise NoCertificateError(
            "no monotonicity certificate for %s on [%d, %d], too wide a stretch "
            "for interval-cell evaluation" % (spec.id, lo, uncovered)
        )
    lower = spec.direction == "lower"
    return _Plan(
        spec=spec,
        lane=_LANE_OF_KIND[spec.kind],
        lower=lower,
        eval_at_succ=lower == (proofkit.canonical_sense(spec.kind) == "increasing"),
        pair_start=pair_start,
    )


# ---------------------------------------------------------------------------
# the scanning engine
# ---------------------------------------------------------------------------


@dataclass
class _Fail:
    """One failing cell [base, succ): its exact quantity q as plain integers
    and the compared enclosures, None for a fast-lane fail until the scan
    ends and confirms it."""

    base: int
    succ: int
    q: object
    lhs: Optional[Enclosure] = None
    rhs: Optional[Enclosure] = None


class _SpecScan:
    """One claim's scan record, plain data: its plan, its verdict counts and
    its highest failing cells so far, ascending by base."""

    def __init__(self, plan: _Plan):
        self.plan = plan
        self.passes = self.failures = self.indeterminates = 0
        self.fails: deque[_Fail] = deque(maxlen=COUNTEREXAMPLE_CAP)

    def confirm(self):
        """Decide the retained fast-lane fails exactly; all must fail."""
        for f in self.fails:
            if f.lhs is None:
                verdict, f.lhs, f.rhs = _check_cell(self.plan, f.base, f.succ, f.q)
                if verdict is not Verdict.Fail:
                    raise FastLaneMismatchError(
                        "%s: the float lane failed x = %d beyond its margin, but the "
                        "exact recheck says %s" % (self.plan.spec.id, f.base, verdict.name)
                    )


class _SegmentData:
    """Shared per-segment arrays, built lazily per lane.

    Row 0 is the carried base, the segment's primes follow, and row i holds
    the cell [p[i], p[i + 1]).  before is the exact state through row 0, so
    the quantity at row i is before plus the segment's first i primes.  p
    holds the rows as float64, which is exact below 2**53.
    """

    def __init__(self, before: Optional[AccumulatorState], base: int, segment: PrimeSegment):
        self.before = before
        self.seg = segment
        self.p = np.empty(segment.primes.size + 1, dtype=np.float64)
        self.p[0] = base
        self.p[1:] = segment.primes
        self.logs = np.log(self.p)
        self._values: dict[str, np.ndarray] = {}
        self._runs: dict[str, np.ndarray] = {}
        self._cursors: dict[str, tuple[int, int, int]] = {}  # see exact()

    def values(self, lane: str) -> np.ndarray:
        """Per-prime terms of a summed lane, built once per segment."""
        out = self._values.get(lane)
        if out is None:
            out = self._values[lane] = sieve.lane_terms(lane, self.p[1:], self.logs[1:], self.recip)
        return out

    @functools.cached_property
    def recip(self) -> np.ndarray:
        """1.0 / p over the segment's primes, shared by the recip and log1m lanes."""
        return 1.0 / self.p[1:]

    def _chunk_total(self, lane: str, k: int) -> tuple[int, int]:
        """Exact lane total at row k * SUM_CHUNK."""
        (v0, b0), (v, b) = self.before.sums[lane], self.seg.sums[lane][k]
        return v0 + v, b0 + b

    def run(self, lane: str) -> np.ndarray:
        """Float lane quantity at every cell of the segment."""
        out = self._runs.get(lane)
        if out is None:
            if lane == "gap":
                out = self.p[1:]
            elif lane == "pi":
                out = self.before.pi + np.arange(self.p.size - 1, dtype=np.float64)
            else:
                values = self.values(lane)
                out = np.empty(values.size, dtype=np.float64)
                for k, a in enumerate(range(0, values.size, SUM_CHUNK)):
                    # restart from the correctly rounded exact total at row
                    # a, then add the terms of the primes up to each row
                    chunk = out[a : a + SUM_CHUNK]
                    chunk[0] = 0.0
                    np.cumsum(values[a : a + chunk.size - 1], out=chunk[1:])
                    chunk += math.ldexp(float(self._chunk_total(lane, k)[0]), -dyadic.SCALE_BITS)
                if lane == "log1m":
                    np.negative(out, out=out)
            self._runs[lane] = out
        return out

    def exact(self, lane: str, n: int) -> tuple[int, int]:
        """Exact (value, budget) of a summed lane at row n.

        before, plus the segment's partial sum over the whole chunks among
        its first n primes, plus the fewer than SUM_CHUNK terms after them.
        Each lane keeps the (count, value, budget) of its last call as a
        cursor and carries on from it when it lies in between.
        """
        a = n - n % SUM_CHUNK
        m, v, b = self._cursors.get(lane, (-1, 0, 0))
        if not a <= m <= n:
            m, (v, b) = a, self._chunk_total(lane, a // SUM_CHUNK)
        if m < n:
            dv, db = sieve.lane_sum(lane, self.values(lane)[m:n])
            v, b = v + dv, b + db
        self._cursors[lane] = (n, v, b)
        return v, b

    def quantity(self, lane: str, i: int):
        """Exact lane quantity on the cell of row i as plain integers: the
        successor prime of a gap claim, pi, or a summed lane's scaled
        (value, budget).  _enclose makes it an enclosure."""
        if lane == "gap":
            return int(self.p[i + 1])
        if lane == "pi":
            return self.before.pi + i
        return self.exact(lane, i)


def _exact_cell(scan: _SpecScan, data: _SegmentData, i: int):
    """Decide the cell [p[i], p[i + 1]) exactly and record its verdict."""
    base, succ = int(data.p[i]), int(data.p[i + 1])
    q = data.quantity(scan.plan.lane, i)
    verdict, lhs, rhs = _check_cell(scan.plan, base, succ, q)
    if verdict is Verdict.Pass:
        scan.passes += 1
    elif verdict is Verdict.Fail:
        scan.failures += 1
        scan.fails.append(_Fail(base, succ, q, lhs, rhs))
    else:
        scan.indeterminates += 1


def _sides(plan: _Plan, data: _SegmentData, cells: np.ndarray):
    """Float sides of the fast-lane check at the given cells.

    Returns (big, small): the check passes where big - small exceeds the
    tolerance of _triage.  big is the quantity of a lower bound and the
    bound of an upper one."""
    at = cells + 1 if plan.eval_at_succ else cells
    f = _bound_float(plan.spec, data.p[at], data.logs[at])
    q = data.run(plan.lane)[cells]
    return (q, f) if plan.lower else (f, q)


def _cells(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """The last k cells of the disjoint runs [a, b), ascending.  Only the
    fewest top runs that hold them are expanded."""
    order = np.argsort(a)
    a, n = a[order], (b - a)[order]
    m = min(int(np.searchsorted(np.cumsum(n[::-1]), k)) + 1, a.size)
    a, n = a[a.size - m :], n[a.size - m :]
    return (np.repeat(a - np.cumsum(n) + n, n) + np.arange(n.sum(), dtype=np.int64))[-k:]


def _triage(scan: _SpecScan, data: _SegmentData, start: int, cut: int):
    """Phase 1: sort one claim's cells [start, cut) into certain pass, fail and unsure.

    The one rule of the module docstring, on a nonempty range: runs [a, b),
    first the _BLOCK grid clipped to [start, cut), pass whole when their
    worst margin min(big) - max(small) exceeds tol, fail whole when their
    best margin max(big) - min(small) is below -tol, and are otherwise
    halved; an undecided single cell is unsure.  Both ends of every run of
    a level are read in one _sides call, which sets tol (see _EPS).  Certain
    passes are counted at once; returns the runs that failed whole as the
    arrays (a, b) of the runs [a, b), and the ascending segment indices of
    the unsure cells.
    """
    plan = scan.plan
    a = np.arange(start // _BLOCK * _BLOCK, cut, _BLOCK, dtype=np.int64)
    a[0] = start
    b = np.append(a[1:], cut)
    fail_a, fail_b, unsure = [], [], []
    while a.size:
        n = a.size
        big, small = _sides(plan, data, np.concatenate((a, b - 1)))
        tol = _EPS * (np.abs(big).max() + np.abs(small).max())
        passed = np.minimum(big[:n], big[n:]) - np.maximum(small[:n], small[n:]) > tol
        failed = np.maximum(big[:n], big[n:]) - np.minimum(small[:n], small[n:]) < -tol
        scan.passes += int((b - a)[passed].sum())
        fail_a.append(a[failed])
        fail_b.append(b[failed])
        rest = ~(passed | failed)
        unsure.append(a[rest & (b - a == 1)])
        rest &= b - a > 1
        a, b = a[rest], b[rest]
        m = (a + b) // 2
        a, b = np.concatenate((a, m)), np.concatenate((m, b))
    return np.concatenate(fail_a), np.concatenate(fail_b), np.sort(np.concatenate(unsure))


def _settle(scan: _SpecScan, data: _SegmentData, fail_a, fail_b, unsure_idx):
    """Phase 2: one claim's certain-fail runs [fail_a, fail_b) and unsure cells.

    The certain fails are counted off the runs' lengths; only the last
    COUNTEREXAMPLE_CAP of them are expanded into cells and kept, with their
    exact quantity but no enclosures, for confirmation at scan end.  The
    unsure cells are decided exactly, in ascending order with the kept fails.
    """
    failures = int((fail_b - fail_a).sum())
    if not (failures or unsure_idx.size):
        return
    scan.failures += failures
    kept = _cells(fail_a, fail_b, COUNTEREXAMPLE_CAP)
    certain = set(kept.tolist())
    for i in np.union1d(kept, unsure_idx).tolist():
        if i in certain:
            q = data.quantity(scan.plan.lane, i)
            scan.fails.append(_Fail(int(data.p[i]), int(data.p[i + 1]), q))
        else:
            _exact_cell(scan, data, i)


def _scan_segment(scans, data: _SegmentData):
    p = data.p
    cut = p.size - 1  # the segment's cells; the last row is only a successor
    for scan in scans:
        plan = scan.plan
        # exact cells: the certificate-free stretch below pair_start; the
        # float lane takes the rest
        start = cut if plan.pair_start is None else int(np.searchsorted(p[:cut], plan.pair_start))
        for i in range(start):
            _exact_cell(scan, data, i)
        if start < cut:
            _settle(scan, data, *_triage(scan, data, start, cut))


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
    crossing of the bound through the cell's constant quantity.  The claim's
    report carries the rest: its id, range, failures and checks.
    """

    largest_failing_x: int
    implied_threshold: Optional[int]


@dataclass(frozen=True)
class ClaimScan:
    report: VerificationReport
    crossing: Optional[CrossingResult]


def _resolve_crossing(scan: _SpecScan) -> Optional[CrossingResult]:
    if not scan.fails:
        return None
    plan, last = scan.plan, scan.fails[-1]
    if plan.eval_at_succ:
        implied = last.succ
    else:
        # the binding endpoint is the base, so the violation dies out where
        # the bound crosses the cell's constant quantity: the least t in
        # (base, succ] whose degenerate cell [t, t] passes
        implied = proofkit.least_integer(
            lambda t: _check_cell(plan, t, t, last.q)[0] is Verdict.Pass, last.base, last.succ
        )
    return CrossingResult(largest_failing_x=last.base, implied_threshold=implied)


def _carried(lanes: set[str], state: Optional[AccumulatorState]) -> Optional[AccumulatorState]:
    """The one rule for what a fold for claims on these lanes carries:
    nothing but the primes for gap claims alone (None), the prime count for
    pi and gap claims (the state without its sums: anchored, and with its
    digest, so a state of another numeric config is still refused), else
    the exact sums too."""
    if lanes == {"gap"}:
        return None
    if lanes <= _COUNT_LANES:
        return replace(state, sums=None)
    return state


def _scan_group(
    plans: Sequence[_Plan],
    range_lo: int,
    range_hi: int,
    top: int,
    state: Optional[AccumulatorState],
    segment_odds: int,
    resolve_crossings: bool,
) -> list[ClaimScan]:
    """Scan one group of planned claims over (range_lo, top]: one pool task.

    state is the exact state at range_lo, or None when no claim of the scan
    needs one.  The group folds what _carried gives for its lanes, one
    sieve.accumulate per segment before it is scanned, so a group on the pi
    and gap lanes never forms its segments' sums and a gap-only group folds
    nothing.  The reports carry no wall time.
    """
    before = _carried({p.lane for p in plans}, state)
    scans = [_SpecScan(p) for p in plans]
    base = range_lo
    for seg in sieve.segments(range_lo + 1, top, segment_odds):
        after = None if before is None else sieve.accumulate(before, seg)
        data = _SegmentData(before, base, seg)
        _scan_segment(scans, data)
        base, before = int(data.p[-1]), after
    out = []
    for scan in scans:
        scan.confirm()
        report = VerificationReport(
            bound_id=scan.plan.spec.id,
            range_lo=range_lo,
            range_hi=range_hi,
            checked=scan.passes + scan.failures + scan.indeterminates,
            passes=scan.passes,
            failures=scan.failures,
            indeterminates=scan.indeterminates,
            counterexamples=tuple(Counterexample(f.base, f.lhs, f.rhs) for f in scan.fails),
        )
        crossing = _resolve_crossing(scan) if resolve_crossings else None
        out.append(ClaimScan(report=report, crossing=crossing))
    return out


def scan_claims(
    specs: Sequence[BoundSpec],
    range_lo: int,
    range_hi: int,
    *,
    state: Optional[AccumulatorState] = None,
    segment_odds: int = DEFAULT_SEGMENT_ODDS,
    resolve_crossings: bool = True,
) -> tuple[ClaimScan, ...]:
    """Scan several claims over one shared pass of [range_lo, range_hi].

    Each claim gets its own report; when it failed anywhere and
    resolve_crossings is set, the largest failing cell is resolved into a
    CrossingResult with the threshold the data implies.

    Every claim is planned first, so one that cannot be planned fails
    before anything is sieved.  Claims do not depend on each other once the
    state at range_lo is folded, which happens next.  So when there are
    claims on the summed lanes and claims on the pi and gap lanes, and
    sieve.worker_count gives two or more processes for the scan's segment
    spans, the two groups scan in forked processes, and the results come
    back in the order of specs: the same as one group in this process.
    Every report carries the wall time of the whole call.
    """
    t0 = time.monotonic()
    if range_lo < 2 or range_hi < range_lo:
        raise InvalidRangeError("need 2 <= range_lo <= range_hi")
    if not specs:
        raise InvalidRangeError("nothing to verify")
    if range_hi >= sieve.LAST_PRIME:
        raise CapacityError(
            "range_hi must be below %d, the largest prime below 2**53, as the "
            "last cell needs the prime after it" % sieve.LAST_PRIME
        )
    # planned before the fold, so that an unplannable claim fails at once
    plans = [_make_plan(spec, range_lo, range_hi) for spec in specs]
    lanes = {p.lane for p in plans}
    if state is not None and lanes != {"gap"}:
        if state.x > range_lo:
            raise MismatchedStateError(
                "state is already at %d, past range start %d" % (state.x, range_lo)
            )
        if state.anchored and lanes - _COUNT_LANES:
            raise MismatchedStateError("anchored states carry pi only")
    state = _carried(lanes, state or AccumulatorState.initial())
    if state is not None:
        state = sieve.pi_theta_at(range_lo, resume_from=state, segment_odds=segment_odds)
    # the last cell's successor, which is never a base; it also fills the
    # base prime cache before any fork
    top = sieve.next_prime(range_hi)

    summed = [i for i, p in enumerate(plans) if p.lane not in _COUNT_LANES]
    counted = [i for i, p in enumerate(plans) if p.lane in _COUNT_LANES]
    groups = [g for g in (summed, counted) if g]
    n = 1
    if len(groups) == 2:  # only then: worker_count may import multiprocessing
        n = min(sieve.worker_count(len(range(range_lo + 1, top + 1, 2 * segment_odds))), 2)
    if n < 2:
        groups = [list(range(len(specs)))]
    work = functools.partial(
        _scan_group,
        range_lo=range_lo,
        range_hi=range_hi,
        top=top,
        state=state,
        segment_odds=segment_odds,
        resolve_crossings=resolve_crossings,
    )
    with sieve.forked_map(n) as pmap:
        results = list(pmap(work, [[plans[i] for i in g] for g in groups]))
    wall = time.monotonic() - t0
    out: list[Optional[ClaimScan]] = [None] * len(specs)
    for group, claims in zip(groups, results):
        for i, claim in zip(group, claims):
            out[i] = replace(claim, report=replace(claim.report, wall_time=wall))
    return tuple(out)
