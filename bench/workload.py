#!/usr/bin/env python3
"""One benchmark round in a fresh process.

Imports primebounds (timed as set-up), optionally installs the tracer, runs
one workload on the inputs it is given (timed as wall), and prints one JSON
object as its last line: the timings, the peak resident memory, the raw
outputs that run.py checks, and with --trace 1 the per-layer figures.

run.py starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from types import SimpleNamespace

GAP_CLAIMS = ("thm4.1.gap3", "thm4.1.gap4", "eq4.2.gap", "eq4.3.gap")


def set_up():
    """Import the package and build its registry and constants; time it."""
    t0 = time.perf_counter()
    from primebounds import analytic, bounds, dyadic, enclosure, proofkit, sieve, verify

    bounds.registry_list()
    analytic.constants(28)
    elapsed = time.perf_counter() - t0
    pb = SimpleNamespace(analytic=analytic, bounds=bounds, dyadic=dyadic,
                         enclosure=enclosure, proofkit=proofkit, sieve=sieve, verify=verify)
    return elapsed, pb


def install_tracer(pb):
    from tracer import Tracer

    tr = Tracer()
    Enclosure = pb.enclosure.Enclosure
    default_prec = pb.enclosure.DEFAULT_PREC

    def stride_loops(lo, hi, base=None):
        # sieve_segment walks every odd base prime p with p*p <= hi
        if base is None:
            base = pb.sieve.base_primes(math.isqrt(hi))
        if (lo | 1) > hi:
            return 0
        return max(int(base.searchsorted(math.isqrt(hi), side="right")) - 1, 0)

    def eval_kind(spec, x, prec=default_prec):
        if isinstance(x, Enclosure):
            return "cell"
        return "pair" if prec <= default_prec else "retry"

    tr.wrap(pb.sieve, "sieve_segment", "sieve.sieve_segment", stride_loops)
    tr.wrap(pb.sieve, "accumulate", "sieve.accumulate")
    tr.wrap(pb.sieve, "write_checkpoint", "sieve.checkpoint")
    tr.wrap(pb.dyadic, "scaled_sum", "dyadic.scaled_sum", lambda values: int(values.size))
    tr.wrap(pb.verify, "scan_claims", "verify.scan_claims")
    # verify binds eval_bound at import, so its copy is wrapped as well
    tr.wrap(pb.bounds, "eval_bound", "bounds.eval_bound", eval_kind)
    tr.wrap(pb.verify, "eval_bound", "bounds.eval_bound", eval_kind)
    tr.wrap(pb.analytic, "constants", "analytic.constants")
    tr.wrap(pb.proofkit, "shape_on_ray", "proofkit.shape_on_ray")
    return tr


def layer_figures(tr, cells: int) -> dict:
    """Per-layer counts and self times summed over the recorded spans."""
    fig = defaultdict(float)
    own = tr.self_times()
    for i, (name, _start, _end, _parent, tag) in enumerate(tr.spans):
        if name == "dyadic.scaled_sum":
            under = tr.ancestor(i, ("sieve.accumulate", "verify.scan_claims"))
            name += ".under_scan" if under == "verify.scan_claims" else ".under_accumulate"
            fig[name + ".terms"] += tag
        elif name == "bounds.eval_bound":
            fig["bounds.eval_bound.%s_calls" % tag] += 1
        elif name == "sieve.sieve_segment":
            fig["sieve.stride_loops"] += tag
        elif name == "sieve.checkpoint":
            fig["sieve.checkpoint.lines"] += 1
        fig[name + ".calls"] += 1
        fig[name + ".self_s"] += own[i]
    exact = fig["bounds.eval_bound.pair_calls"] + fig["bounds.eval_bound.retry_calls"]
    fig["verify.cells"] = cells
    fig["verify.exact_per_cell"] = exact / cells if cells else 0.0
    return dict(fig)


def accumulate(pb, inp: dict, tmp: str):
    path = os.path.join(tmp, "accumulate.jsonl")
    t0 = time.perf_counter()
    state = pb.sieve.pi_theta_at(inp["x"], checkpoint_path=path, checkpoint_every=inp["every"])
    wall = time.perf_counter() - t0
    with open(path) as fh:
        back = pb.sieve.read_checkpoint(fh)
    return wall, {
        "x": state.x,
        "pi": state.pi,
        "theta_lo": list(state.theta.lo_rational()),
        "theta_hi": list(state.theta.hi_rational()),
        "checkpoint_matches": back == state,
    }


def _claim_rows(claims, lookup) -> list[dict]:
    rows = []
    for claim in claims:
        r, c = claim.report, claim.crossing
        rows.append({
            "id": r.bound_id,
            "x0": lookup(r.bound_id).threshold_x0,
            "checked": r.checked,
            "failures": r.failures,
            "indeterminates": r.indeterminates,
            "largest_failing_x": c.largest_failing_x if c else None,
            "implied": c.implied_threshold if c else None,
        })
    return rows


def desk_scan(pb, inp: dict, tmp: str):
    specs = [s for s in pb.bounds.registry_list()
             if s.status == "claimed_paper" and s.threshold_x0 <= inp["claims_x0_max"]]
    t0 = time.perf_counter()
    claims = pb.verify.scan_claims(specs, 2, inp["ceiling"], resolve_crossings=True)
    wall = time.perf_counter() - t0
    return wall, {"claims": _claim_rows(claims, pb.bounds.lookup)}


def gap_window(pb, inp: dict, tmp: str):
    specs = [pb.bounds.lookup(i) for i in GAP_CLAIMS]
    t0 = time.perf_counter()
    claims = pb.verify.scan_claims(specs, inp["lo"], inp["hi"])
    wall = time.perf_counter() - t0
    return wall, {"claims": _claim_rows(claims, pb.bounds.lookup)}


WORKLOADS = {"accumulate": accumulate, "desk-scan": desk_scan, "gap-window": gap_window}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["setup"])
    ap.add_argument("--inputs", default="{}", help="workload inputs as JSON")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", default=".", help="directory for checkpoint files")
    args = ap.parse_args()

    setup_s, pb = set_up()
    result = {"setup_s": setup_s}
    if args.workload != "setup":
        tr = install_tracer(pb) if args.trace else None
        try:
            wall, out = WORKLOADS[args.workload](pb, json.loads(args.inputs), args.tmp)
        except Exception:  # reported as failed operations by run.py
            result["error"] = traceback.format_exc()
        else:
            result.update(wall_s=wall, output=out)
            if tr is not None:
                cells = sum(row["checked"] for row in out.get("claims", ()))
                result["layers"] = layer_figures(tr, cells)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
