"""Command-line surface for sieving, evaluation, verification, and proofs.

One subcommand per capability: sieve (exact prime accumulation), eval
(bound enclosures at a point), verify (range checks with reports), crossing
(threshold recovery), reproduce (the paper's thresholds up to --to in one
scan), constants (gamma, Mertens B, Landau E), proof (monotonicity
certificates), registry (the bound catalogue).

Exit codes follow the verification contract: 0 all pass, 1 failures
present, 2 indeterminates present, 3 usage or configuration error;
reproduce exits 1 when any printed threshold disagrees with the scan.
Reports are written with wall_time_s zeroed so identical runs produce
byte-identical files; timing goes to stderr instead.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from . import analytic, proofkit, sieve, verify
from .bounds import eval_bound, lookup, registry_list
from .enclosure import DEFAULT_PREC, Enclosure
from .errors import InvalidRangeError, PrimeBoundsError
from .verify import VerificationReport, exit_code_for, report_to_json

EXTENDED_RANGE_LIMIT = 10**9

ENV_CHECKPOINT_DIR = "PRIMEBOUNDS_CHECKPOINT_DIR"

_USAGE_EXIT = 3


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: which command, over what, and where output goes."""

    command: str
    bound_ids: tuple[str, ...] = ()
    range_lo: Optional[int] = None
    range_hi: Optional[int] = None
    segment_odds: int = sieve.DEFAULT_SEGMENT_ODDS
    checkpoint_in: Optional[str] = None
    checkpoint_out: Optional[str] = None
    checkpoint_every: Optional[int] = None
    report_path: Optional[str] = None
    report_format: str = "json"
    extended: bool = False
    x: Optional[str] = None
    x_start: Optional[int] = None
    digits: int = 28
    prefix: str = ""
    full: bool = False

    def __post_init__(self):
        object.__setattr__(self, "bound_ids", tuple(self.bound_ids))
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise InvalidRangeError("--checkpoint-every must be at least 1")
        sieve.check_segment_odds(self.segment_odds)
        if self.range_lo is not None and self.range_hi is not None:
            if self.range_lo > self.range_hi:
                raise InvalidRangeError("--from must not exceed --to")
        if self.report_format not in ("json", "csv", "text"):
            raise InvalidRangeError("format must be json, csv, or text")


def _checkpoint_path(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get(ENV_CHECKPOINT_DIR)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _gate_extended(config: RunConfig) -> None:
    """Refuse a --to beyond EXTENDED_RANGE_LIMIT unless --extended is given."""
    hi = config.range_hi
    if hi is not None and hi > EXTENDED_RANGE_LIMIT and not config.extended:
        raise InvalidRangeError(
            "range reaches %d (> %d); pass --extended to allow ranges beyond 10^9"
            % (hi, EXTENDED_RANGE_LIMIT)
        )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _decimal_out(num: int, den: int, places: int, round_up: bool) -> str:
    """Exact value num/den as a decimal with outward rounding."""
    scaled = num * 10**places
    q, r = divmod(scaled, den)
    if r and round_up:
        q += 1  # divmod floors, so q is already rounded down otherwise
    sign, q = ("-", -q) if q < 0 else ("", q)
    digits = str(q).zfill(places + 1)
    head, frac = digits[:-places], digits[-places:].rstrip("0")
    return sign + head + ("." + frac if frac else "")


def _enc_out(e: Enclosure, places: int = 30) -> tuple[str, str]:
    """Outward-rounded decimal endpoints, safe to read as an enclosure."""
    lo = _decimal_out(*e.lo_rational(), places, round_up=False)
    hi = _decimal_out(*e.hi_rational(), places, round_up=True)
    return lo, hi


def emit_report(report: VerificationReport, format: str = "json") -> bytes:
    """Deterministic serialisation of one report (json, csv, or text)."""
    if format == "json":
        return (report_to_json(report) + "\n").encode("utf-8")
    if format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(
            ["bound_id", "range_lo", "range_hi", "checked", "passes",
             "failures", "indeterminates", "wall_time_s", "tool_version"]
        )
        w.writerow(
            [report.bound_id, report.range_lo, report.range_hi, report.checked,
             report.passes, report.failures, report.indeterminates,
             repr(report.wall_time), verify.TOOL_VERSION]
        )
        w.writerow(["counterexample_x", "lhs_lo", "lhs_hi", "rhs_lo", "rhs_hi"])
        for c in report.counterexamples:
            w.writerow([c.x, *c.lhs.decimal_pair(), *c.rhs.decimal_pair()])
        return buf.getvalue().encode("utf-8")
    if format == "text":
        try:
            anchor = lookup(report.bound_id).anchor
        except PrimeBoundsError:
            anchor = "(not in registry)"
        lines = [
            "bound %s  [%s]" % (report.bound_id, anchor),
            "range [%d, %d]" % (report.range_lo, report.range_hi),
            "checked %d: %d pass, %d fail, %d indeterminate"
            % (report.checked, report.passes, report.failures, report.indeterminates),
        ]
        for c in report.counterexamples:
            lines.append(
                "  counterexample x=%d lhs=[%s, %s] rhs=[%s, %s]"
                % (c.x, *c.lhs.decimal_pair(), *c.rhs.decimal_pair())
            )
        lines.append("wall_time_s %r  %s" % (report.wall_time, verify.TOOL_VERSION))
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise InvalidRangeError("format must be json, csv, or text")


def _write_reports(config: RunConfig, reports: Sequence[VerificationReport]):
    frozen = [replace(r, wall_time=0.0) for r in reports]
    blobs = [emit_report(r, config.report_format) for r in frozen]
    if config.report_path:
        with open(config.report_path, "wb") as fh:
            for blob in blobs:
                fh.write(blob)
    else:
        for blob in blobs:
            sys.stdout.write(blob.decode("utf-8"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _read_resume(config: RunConfig) -> tuple[Optional[str], Optional[sieve.AccumulatorState]]:
    """The resolved --resume path and the state on its last line."""
    path = _checkpoint_path(config.checkpoint_in)
    if not path:
        return path, None
    with open(path) as fh:
        return path, sieve.read_checkpoint(fh)


def _cmd_sieve(config: RunConfig) -> int:
    target = config.range_hi
    if target is None:
        raise InvalidRangeError("sieve needs --to")
    _, resume = _read_resume(config)
    t0 = time.monotonic()
    state = sieve.pi_theta_at(
        target,
        resume_from=resume,
        segment_odds=config.segment_odds,
        checkpoint_path=_checkpoint_path(config.checkpoint_out),
        checkpoint_every=config.checkpoint_every,
    )
    print("sieved to %d in %.1fs" % (target, time.monotonic() - t0), file=sys.stderr)
    print("x %d" % state.x)
    print("pi %d" % state.pi)
    print("theta [%s, %s]" % _enc_out(state.theta, 12))
    if config.full:
        print("psi [%s, %s]" % _enc_out(state.psi, 12))
        print("sum_recip [%s, %s]" % _enc_out(state.sum_recip))
        print("sum_logp [%s, %s]" % _enc_out(state.sum_logp))
        print("sum_log1m [%s, %s]" % _enc_out(state.sum_log1m))
    return 0


def _parse_x(text: str):
    try:
        return int(text.replace("_", ""))
    except ValueError:
        pass
    try:
        val = float(text)
    except ValueError:
        raise InvalidRangeError("--x must be a number, not %r" % text) from None
    if not math.isfinite(val):
        raise InvalidRangeError("--x must be a finite number")
    return int(val) if val == int(val) else val


def _cmd_eval(config: RunConfig) -> int:
    if not config.bound_ids or config.x is None:
        raise InvalidRangeError("eval needs --bound and --x")
    x = _parse_x(config.x)
    for bound_id in config.bound_ids:
        spec = lookup(bound_id)
        enc = eval_bound(spec, x, DEFAULT_PREC)
        lo, hi = _enc_out(enc)
        print("%s(%s) in [%s, %s]" % (bound_id, config.x, lo, hi))
        print("  ~ %.15g (width %.3g)" % (enc.mid_float(), float(enc.width)))
    return 0


def _cmd_verify(config: RunConfig) -> int:
    if not config.bound_ids:
        raise InvalidRangeError("verify needs at least one --bound")
    if config.range_lo is None or config.range_hi is None:
        raise InvalidRangeError("verify needs --from and --to")
    specs = [lookup(b) for b in config.bound_ids]
    ck_in, resume = _read_resume(config)
    claims = verify.scan_claims(
        specs,
        config.range_lo,
        config.range_hi,
        state=resume,
        segment_odds=config.segment_odds,
        resolve_crossings=False,
    )
    reports = [replace(c.report, checkpoint_ref=ck_in) for c in claims]
    for r in reports:
        print(
            "%s: %d checked, %d fail, %d indeterminate (%.1fs)"
            % (r.bound_id, r.checked, r.failures, r.indeterminates, r.wall_time),
            file=sys.stderr,
        )
    _write_reports(config, reports)
    return exit_code_for(reports)


def _cmd_crossing(config: RunConfig) -> int:
    if len(config.bound_ids) != 1:
        raise InvalidRangeError("crossing needs exactly one --bound")
    if config.range_hi is None:
        raise InvalidRangeError("crossing needs --to")
    spec = lookup(config.bound_ids[0])
    (claim,) = verify.scan_claims(
        [spec],
        config.range_lo if config.range_lo is not None else 2,
        config.range_hi,
        segment_odds=config.segment_odds,
    )
    report, result = claim.report, claim.crossing
    if result is None:
        doc = {"bound_id": report.bound_id, "crossing": None}
    else:
        doc = {
            "bound_id": report.bound_id,
            "search": [report.range_lo, report.range_hi],
            "largest_failing_x": result.largest_failing_x,
            "implied_threshold": result.implied_threshold,
            "failures": report.failures,
            "checked": report.checked,
        }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_reproduce(config: RunConfig) -> int:
    to = config.range_hi
    if to is None or to < 2:
        raise InvalidRangeError("reproduce needs --to of at least 2")
    specs = [
        s for s in registry_list() if s.status == "claimed_paper" and s.threshold_x0 <= to
    ]
    print("scanning %d claims over [2, %d] in one pass" % (len(specs), to), file=sys.stderr)
    t0 = time.monotonic()
    claims = verify.scan_claims(specs, 2, to, segment_odds=config.segment_odds)
    elapsed = time.monotonic() - t0
    x0_of = {s.id: s.threshold_x0 for s in specs}
    rows, all_ok = [], True
    for claim in sorted(claims, key=lambda c: x0_of[c.report.bound_id]):
        report = claim.report
        x0 = x0_of[report.bound_id]
        implied = claim.crossing.implied_threshold if claim.crossing else None
        # consistent: no failures at or above the printed threshold, no
        # indeterminate verdicts.  tight: the implied threshold is the
        # printed one exactly (the largest failure sits right below x0).
        consistent = report.indeterminates == 0 and (
            claim.crossing is None or claim.crossing.largest_failing_x < x0
        )
        tight = implied == x0
        all_ok &= consistent
        rows.append(
            {
                "bound_id": report.bound_id,
                "printed_threshold": x0,
                "implied_threshold": implied,
                "failures": report.failures,
                "checked": report.checked,
                "indeterminates": report.indeterminates,
                "consistent": consistent,
                "tight": tight,
            }
        )
        print(
            "%-18s x0=%-10d implied=%-10s failures=%-9d %s"
            % (
                report.bound_id,
                x0,
                implied if implied is not None else "-",
                report.failures,
                ("ok tight" if tight else "ok") if consistent else "MISMATCH",
            ),
            file=sys.stderr,
        )
    print("ALL CONSISTENT: %s  (%.1fs)" % (all_ok, elapsed), file=sys.stderr)
    print(json.dumps({"ceiling": to, "claims": rows}, indent=2, sort_keys=True))
    return 0 if all_ok else 1


def _cmd_constants(config: RunConfig) -> int:
    gamma, b, e = analytic.constants(config.digits)
    for name, enc in (("euler_gamma", gamma), ("mertens_B", b), ("landau_E", e)):
        lo, hi = _enc_out(enc, config.digits + 4)
        print("%s [%s, %s]" % (name, lo, hi))
    return 0


def _frac_str(f: Optional[Fraction]) -> Optional[str]:
    return None if f is None else str(f)


def _positivity_doc(cert) -> Optional[dict]:
    if cert is None:
        return None
    return {
        "polynomial": [str(c) for c in cert.polynomial.coefficients],
        "ray_start": _frac_str(cert.ray_start),
        "verdict": cert.verdict,
        "value_at_start": _frac_str(cert.value_at_start),
        "distinct_roots_beyond": cert.distinct_roots_beyond,
        "root_bound": _frac_str(cert.root_bound),
        "witness": _frac_str(cert.witness),
        "value_at_witness": _frac_str(cert.value_at_witness),
    }


def _cmd_proof(config: RunConfig) -> int:
    if len(config.bound_ids) != 1:
        raise InvalidRangeError("proof needs exactly one --bound")
    spec = lookup(config.bound_ids[0])
    x_start = config.x_start if config.x_start is not None else spec.threshold_x0
    cert = proofkit.shape_on_ray(spec, x_start)
    doc = {
        "bound_id": cert.bound_id,
        "x_start": _frac_str(cert.x_start),
        "log_ray_start": _frac_str(cert.log_ray_start),
        "sense": cert.sense,
        "basis": cert.basis,
        "holds": cert.holds(),
        "certificate": _positivity_doc(cert.certificate),
        "denominator_certificate": _positivity_doc(cert.denominator_certificate),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if cert.holds() else 1


def _cmd_registry(config: RunConfig) -> int:
    specs = [s for s in registry_list() if s.id.startswith(config.prefix)]
    if config.report_format == "json":
        docs = [
            {
                "id": s.id,
                "kind": s.kind.name,
                "direction": s.direction,
                "coefficients": [str(c) for c in s.coefficients],
                "threshold_x0": s.threshold_x0,
                "status": s.status,
                "anchor": s.anchor,
            }
            for s in specs
        ]
        print(json.dumps(docs, indent=2, sort_keys=True))
    elif config.report_format == "csv":
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(["id", "kind", "direction", "coefficients", "threshold_x0", "status", "anchor"])
        for s in specs:
            w.writerow(
                [s.id, s.kind.name, s.direction, " ".join(str(c) for c in s.coefficients),
                 s.threshold_x0, s.status, s.anchor]
            )
    else:
        for s in specs:
            print(
                "%-24s %-18s %-6s x0=%-12d %-16s %s"
                % (s.id, s.kind.name, s.direction, s.threshold_x0, s.status,
                   " ".join(str(c) for c in s.coefficients))
            )
    return 0


_COMMANDS = {
    "sieve": _cmd_sieve,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "crossing": _cmd_crossing,
    "reproduce": _cmd_reproduce,
    "constants": _cmd_constants,
    "proof": _cmd_proof,
    "registry": _cmd_registry,
}


def dispatch(config: RunConfig) -> int:
    """Run one configured command; never raises for config/input mistakes."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print("unknown command %r" % config.command, file=sys.stderr)
        return _USAGE_EXIT
    try:
        _gate_extended(config)
        return handler(config)
    except PrimeBoundsError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _USAGE_EXIT
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return _USAGE_EXIT


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _build_parser() -> _Parser:
    p = _Parser(prog="primebounds", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, bounds=False, many_bounds=False, sieves=False, starts=False):
        """Add the shared options a subcommand reads.

        sieves: it sieves up to --to, so it takes the segment size and
        --extended, without which a --to beyond 10^9 exits 3 before any
        sieving; no run-time estimate is printed.  starts: it also takes
        --from.
        """
        if bounds:
            sp.add_argument(
                "--bound", action="append", default=[], dest="bound_ids",
                help="registry bound id" + (" (repeatable)" if many_bounds else ""),
            )
        if starts:
            sp.add_argument("--from", dest="range_lo", type=int, default=None)
        if sieves:
            sp.add_argument("--to", dest="range_hi", type=int, default=None)
            sp.add_argument(
                "--segment-size", type=int, dest="segment_odds",
                default=sieve.DEFAULT_SEGMENT_ODDS,
                help="odd numbers per sieve segment (power of two, at least 1024)",
            )
            sp.add_argument(
                "--extended", action="store_true", help="allow a --to beyond 10^9"
            )

    sp = sub.add_parser("sieve", help="accumulate exact pi/theta/sums up to --to")
    common(sp, sieves=True)
    sp.add_argument("--resume", dest="checkpoint_in", default=None)
    sp.add_argument("--checkpoint-out", dest="checkpoint_out", default=None)
    sp.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None,
                    help="checkpoint spacing: a line at the first span end (a span"
                    " being 2 * --segment-size integers) at or past each mark")
    sp.add_argument("--full", action="store_true", help="also print the prime sums")

    sp = sub.add_parser("eval", help="evaluate a bound enclosure at a point")
    common(sp, bounds=True)
    sp.add_argument("--x", required=True)

    sp = sub.add_parser("verify", help="check bounds over a range and report")
    common(sp, bounds=True, many_bounds=True, sieves=True, starts=True)
    sp.add_argument("--resume", dest="checkpoint_in", default=None)
    sp.add_argument("--report", dest="report_path", default=None)
    sp.add_argument("--format", dest="report_format", default="json",
                    choices=["json", "csv", "text"])

    sp = sub.add_parser("crossing", help="largest violation and implied threshold")
    common(sp, bounds=True, sieves=True, starts=True)

    sp = sub.add_parser(
        "reproduce", help="scan every claimed threshold up to --to against the paper's"
    )
    common(sp, sieves=True)

    sp = sub.add_parser("constants", help="print gamma, Mertens B, Landau E")
    sp.add_argument("--digits", type=int, default=28)

    sp = sub.add_parser("proof", help="emit a monotonicity certificate as JSON")
    common(sp, bounds=True)
    sp.add_argument("--x-start", dest="x_start", type=int, default=None)

    sp = sub.add_parser("registry", help="list the bound catalogue")
    sp.add_argument("--prefix", default="")
    sp.add_argument("--format", dest="report_format", default="text",
                    choices=["json", "csv", "text"])

    return p


def config_from_args(argv: Sequence[str]) -> RunConfig:
    return RunConfig(**vars(_build_parser().parse_args(argv)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = config_from_args(argv)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return _USAGE_EXIT
    except PrimeBoundsError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return _USAGE_EXIT
    return dispatch(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
