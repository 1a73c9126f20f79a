"""Outward-rounded interval values.

An Enclosure is a closed interval [lo, hi] certified to contain an exact real
quantity. Endpoints are exact arbitrary-precision mpmath floats, so an
Enclosure is plain immutable data with no arithmetic of its own. Arithmetic
is the mpmath interval context: lift values into a shared context (directed
rounding at a chosen working precision), compute there, and wrap the result
with Enclosure.from_iv. The default working precision is 106 bits, two
float64 significands; re-evaluation at 212 bits is the single retry tier used
when a comparison comes back undecided.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import mpmath
from mpmath.libmp import from_man_exp

from . import dyadic
from .errors import InvalidRangeError

DEFAULT_PREC = 106
RETRY_PREC = 212

Real = Union[int, float, Fraction, str, "Enclosure"]

_CONTEXTS: dict[int, mpmath.ctx_iv.MPIntervalContext] = {}


def ivctx(prec: int = DEFAULT_PREC) -> mpmath.ctx_iv.MPIntervalContext:
    """Shared interval context for the given precision (created once)."""
    ctx = _CONTEXTS.get(prec)
    if ctx is None:
        ctx = mpmath.ctx_iv.MPIntervalContext()
        ctx.prec = prec
        _CONTEXTS[prec] = ctx
    return ctx


def mpf_exact(v: mpmath.mpf | int | float) -> mpmath.mpf:
    """Exact mpf for an mpf, int or float of any size (no rounding)."""
    if isinstance(v, mpmath.mpf):
        return v
    if isinstance(v, int):
        return mpmath.mp.make_mpf(from_man_exp(v, 0))
    if isinstance(v, float):
        return mpmath.mpf(v)  # float conversion is exact
    raise TypeError("no exact mpf for a %s; Enclosure.from_value rounds it outward" % type(v).__name__)


def lift(ctx, v: Real):
    """Convert a value into an interval of ctx enclosing it."""
    if isinstance(v, Enclosure):
        return ctx.mpf([v.lo, v.hi])
    if isinstance(v, int):
        return ctx.mpf(mpf_exact(v))
    if isinstance(v, float):
        return ctx.mpf(v)
    if isinstance(v, str):
        v = Fraction(v)
    if isinstance(v, Fraction):
        return ctx.mpf(mpf_exact(v.numerator)) / ctx.mpf(mpf_exact(v.denominator))
    return ctx.mpf(v)  # mpf and friends


def _mpf_decimal(x: mpmath.mpf) -> str:
    if mpmath.isinf(x):
        return "inf" if x > 0 else "-inf"
    sign, man, exp, _ = x._mpf_
    return dyadic.to_decimal(-man if sign else man, -exp)


class Enclosure:
    """Closed interval [lo, hi] containing an exact real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = mpf_exact(lo), mpf_exact(hi)
        if not lo <= hi:
            raise ValueError("enclosure endpoints out of order: %s > %s" % (lo, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Enclosure is immutable")

    def __reduce__(self):
        # rebuild through __init__, as unpickling slots by attribute writes
        # would meet the immutability guard above
        return Enclosure, (self.lo, self.hi)

    @classmethod
    def from_iv(cls, x) -> "Enclosure":
        a, b = x._mpi_
        return cls(mpmath.mp.make_mpf(a), mpmath.mp.make_mpf(b))

    @classmethod
    def from_value(cls, v: Real) -> "Enclosure":
        return cls.from_iv(lift(ivctx(), v))

    @classmethod
    def from_dyadic(cls, lo_scaled: int, hi_scaled: int, scale_bits: int) -> "Enclosure":
        """Exact endpoints lo_scaled * 2**-scale_bits, hi_scaled * 2**-scale_bits."""
        return cls(
            mpmath.mp.make_mpf(from_man_exp(lo_scaled, -scale_bits)),
            mpmath.mp.make_mpf(from_man_exp(hi_scaled, -scale_bits)),
        )

    @classmethod
    def from_truncated_digits(cls, digits: str) -> "Enclosure":
        """Enclosure for a decimal expansion truncated after its last digit.

        "0.26149" means a value in [0.26149, 0.26150]; a leading minus means
        the magnitude was truncated, so "-1.33258" lies in [-1.33259, -1.33258].
        """
        s = digits.strip()
        neg = s.startswith("-")
        if neg:
            s = s[1:]
        mag = Fraction(s)
        n = len(s.split(".")[1]) if "." in s else 0
        step = Fraction(1, 10**n)
        lo, hi = (-(mag + step), -mag) if neg else (mag, mag + step)
        ctx = ivctx(200)
        iv_lo, iv_hi = lift(ctx, lo), lift(ctx, hi)
        return cls(mpmath.mp.make_mpf(iv_lo._mpi_[0]), mpmath.mp.make_mpf(iv_hi._mpi_[1]))

    @classmethod
    def top(cls) -> "Enclosure":
        """The uninformative enclosure (-inf, +inf)."""
        return cls(mpmath.mpf("-inf"), mpmath.mpf("+inf"))

    # -- inspection ---------------------------------------------------------

    @property
    def width(self):
        return self.hi - self.lo

    def decimal_pair(self) -> tuple[str, str]:
        """Exact decimal strings of the endpoints, which are always dyadic."""
        return _mpf_decimal(self.lo), _mpf_decimal(self.hi)

    def mid_float(self) -> float:
        return float((self.lo + self.hi) / 2)

    def _rational(self, endpoint) -> tuple[int, int]:
        if not mpmath.isfinite(endpoint):
            raise InvalidRangeError("endpoint is not finite")
        sign, man, exp, _ = endpoint._mpf_
        num = -int(man) if sign else int(man)
        if exp >= 0:
            return num << exp, 1
        return num, 1 << -exp

    def lo_rational(self) -> tuple[int, int]:
        """The lower endpoint as an exact (numerator, denominator) pair."""
        return self._rational(self.lo)

    def hi_rational(self) -> tuple[int, int]:
        """The upper endpoint as an exact (numerator, denominator) pair."""
        return self._rational(self.hi)

    def contains(self, v: Real) -> bool:
        if isinstance(v, Enclosure):
            return self.lo <= v.lo and v.hi <= self.hi
        if isinstance(v, Fraction) or isinstance(v, str):
            x = lift(ivctx(200), v)
            return self.lo <= mpmath.mp.make_mpf(x._mpi_[0]) and mpmath.mp.make_mpf(x._mpi_[1]) <= self.hi
        return self.lo <= v <= self.hi

    def certainly_lt(self, other: "Enclosure") -> bool:
        return self.hi < other.lo

    def certainly_gt(self, other: "Enclosure") -> bool:
        return self.lo > other.hi

    def certainly_le(self, other: "Enclosure") -> bool:
        return self.hi <= other.lo

    def certainly_ge(self, other: "Enclosure") -> bool:
        return self.lo >= other.hi

    def __eq__(self, other):
        return isinstance(other, Enclosure) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return "Enclosure[%s, %s]" % (mpmath.nstr(self.lo, 24), mpmath.nstr(self.hi, 24))


def elog(x: Real, prec: int = DEFAULT_PREC) -> Enclosure:
    ctx = ivctx(prec)
    v = lift(ctx, x)
    if v.a <= 0:
        raise InvalidRangeError("log requires a strictly positive interval")
    return Enclosure.from_iv(ctx.log(v))


def eexp(x: Real, prec: int = DEFAULT_PREC) -> Enclosure:
    ctx = ivctx(prec)
    return Enclosure.from_iv(ctx.exp(lift(ctx, x)))
