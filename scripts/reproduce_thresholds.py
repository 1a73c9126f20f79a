#!/usr/bin/env python3
"""Reproduce every desk-scale validity threshold in one shared scan.

Selects all catalogued bounds whose printed threshold lies at or below the
scan ceiling, replays them over [2, ceiling] in a single segmented pass,
and compares each bound's implied threshold (one above its largest failing
x) with the printed one.  Exit status 0 means every implied threshold
matches and no verdict was Indeterminate.
"""

import argparse
import json
import sys
import time

from primebounds import verify
from primebounds.bounds import lookup, registry_list
from primebounds.sieve import DEFAULT_SEGMENT_ODDS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--to", type=int, default=10**8, help="scan ceiling (default 10^8)")
    ap.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_ODDS)
    ap.add_argument("--json", metavar="PATH", help="also write results as JSON")
    args = ap.parse_args()

    specs = [
        s for s in registry_list()
        if s.status == "claimed_paper" and s.threshold_x0 <= args.to
    ]
    print(
        "scanning %d claims over [2, %d] in one pass" % (len(specs), args.to),
        file=sys.stderr,
    )
    t0 = time.monotonic()
    claims = verify.scan_claims(specs, 2, args.to, segment_odds=args.segment_size)
    elapsed = time.monotonic() - t0

    rows, all_ok = [], True
    for claim in sorted(claims, key=lambda c: lookup(c.report.bound_id).threshold_x0):
        report = claim.report
        x0 = lookup(report.bound_id).threshold_x0
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
            )
        )

    print("ALL CONSISTENT: %s  (%.1fs)" % (all_ok, elapsed))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"ceiling": args.to, "claims": rows}, fh, indent=2, sort_keys=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
