#!/usr/bin/env python3
"""The primebounds benchmark: three workloads, checked, timed end to end and per layer.

    python3 bench/run.py --workload desk-scan --seed 1 --seconds 34 --trace 0

Run it from the root of a source checkout.  Every round runs the workload
in a fresh single-threaded Python process (bench/workload.py) that imports
primebounds from ./src.  Another round starts while at least half of it,
timed as the last one, still fits in --seconds (so a run of long rounds
gets more than one).  The outputs of every round are checked
against the independent references in bench/reference.py.

--trace 0 prints the end-to-end metrics: the median round's time and the
rates derived from it, the highest peak memory of any round, and the median
set-up time over extra set-up-only processes and every round.  --trace 1
runs each round twice, untraced and traced, and prints the per-layer
metrics together with the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  --workload all runs the three workloads in turn.  --quick shrinks
every workload to a few seconds (for the benchmark's own tests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("accumulate", "desk-scan", "gap-window")

# Operations per round: one accumulation target, one per claim scanned.
DESK_CLAIMS = 22
OPERATIONS = {"accumulate": 1, "desk-scan": DESK_CLAIMS, "gap-window": 4}

# The desk scan takes every claimed_paper claim printed with x0 <= this.
CLAIMS_X0_MAX = 10**8

SIZES = {
    "full": {
        "accumulate": {"x": 10**9, "every": 10**8},
        "desk-scan": {"ceiling": 10**8},
        "gap-window": {"start": 10**14, "shift": 10**12, "width": 2 * 10**7},
    },
    "quick": {
        "accumulate": {"x": 10**6, "every": 10**5},
        "desk-scan": {"ceiling": 10**6},
        "gap-window": {"start": 10**12, "shift": 10**10, "width": 10**5},
    },
}

# Printed thresholds of the 14 claims that README's reproduction table marks
# tight: the data imply exactly this threshold once the scan reaches it.
TIGHT_X0 = {
    "cor3.3.c.upper": 14,
    "cor3.3.b.upper": 22,
    "cor3.3.a.upper": 32,
    "prop3.5.upper": 41,
    "cor3.4.upper": 45,
    "thm3.2.upper": 49,
    "prop3.10.lower": 19423,
    "prop2.5.lower": 70111,
    "cor3.9.e.lower": 468049,
    "thm4.1.gap3": 6034256,
    "prop5.4.upper": 30972320,
    "cor3.9.d.lower": 38099531,
    "prop6.1.lower": 46909038,
    "prop5.1.upper": 46909074,
}

# Widest theta enclosure accepted; the exact accumulator's is ~2e-6 at 10^9.
THETA_WIDTH_TOL = Fraction(1, 10**5)

# Set-up-only processes per run, besides the set-up of every round.
SETUP_SAMPLES = {"full": 7, "quick": 1}
CHILD_TIMEOUT_S = 170

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("primes_per_s", "primes/s"),
    ("cells_per_s", "cells/s"),
)

PER_LAYER = (
    ("sieve.sieve_segment.self_s", "s"),
    ("sieve.sieve_segment.calls", "count"),
    ("sieve.stride_loops", "count"),
    ("sieve.accumulate.self_s", "s"),
    ("sieve.checkpoint.self_s", "s"),
    ("sieve.checkpoint.lines", "count"),
    ("dyadic.scaled_sum.under_accumulate.self_s", "s"),
    ("dyadic.scaled_sum.under_accumulate.calls", "count"),
    ("dyadic.scaled_sum.under_accumulate.terms", "count"),
    ("dyadic.scaled_sum.under_scan.self_s", "s"),
    ("dyadic.scaled_sum.under_scan.calls", "count"),
    ("dyadic.scaled_sum.under_scan.terms", "count"),
    ("verify.scan_claims.self_s", "s"),
    ("bounds.eval_bound.pair_calls", "count"),
    ("bounds.eval_bound.retry_calls", "count"),
    ("bounds.eval_bound.cell_calls", "count"),
    ("bounds.eval_bound.self_s", "s"),
    ("verify.cells", "count"),
    ("verify.exact_per_cell", "1/cell"),
    ("analytic.constants.calls", "count"),
    ("analytic.constants.self_s", "s"),
    ("proofkit.shape_on_ray.calls", "count"),
    ("proofkit.shape_on_ray.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    pass


# -- inputs and references ----------------------------------------------------


def make_inputs(workload: str, seed: int, size: str) -> tuple[dict, dict]:
    """(inputs for the workload process, reference figures for its checks)."""
    sz = SIZES[size][workload]
    if workload == "accumulate":
        x = sz["x"]
        pi = reference.PUBLISHED_PI[x]
        return dict(sz), {"x": x, "pi": pi, "primes": pi, "theta": reference.theta_reference(x)}
    if workload == "desk-scan":
        ceiling = sz["ceiling"]
        pi = reference.PUBLISHED_PI[ceiling]
        inputs = {"ceiling": ceiling, "claims_x0_max": CLAIMS_X0_MAX}
        return inputs, {"ceiling": ceiling, "cells": pi, "primes": pi}
    # gap-window: the seed shifts the start; the window opens at a prime so
    # that every cell in it is a full prime cell [p, next prime)
    start = sz["start"] + random.Random(seed).randrange(sz["shift"])
    lo = reference.first_prime_at_or_above(start)
    hi = lo + sz["width"] - 1
    count = reference.count_primes(lo, hi)
    return {"lo": lo, "hi": hi}, {"lo": lo, "hi": hi, "cells": count, "primes": count}


# -- checks -------------------------------------------------------------------


def check_accumulate(out: dict, ref: dict) -> list[str]:
    problems = []
    if out["x"] != ref["x"]:
        problems.append("state ends at %d, not %d" % (out["x"], ref["x"]))
    if out["pi"] != ref["pi"]:
        problems.append("pi(%d) = %d, reference %d" % (ref["x"], out["pi"], ref["pi"]))
    lo, hi = Fraction(*out["theta_lo"]), Fraction(*out["theta_hi"])
    ref_lo, ref_hi = ref["theta"]
    if hi < ref_lo or ref_hi < lo:
        problems.append("theta enclosure [%s, %s] misses the reference [%s, %s]"
                        % (float(lo), float(hi), float(ref_lo), float(ref_hi)))
    if hi - lo > THETA_WIDTH_TOL:
        problems.append("theta enclosure width %g exceeds %g" % (hi - lo, THETA_WIDTH_TOL))
    if not out["checkpoint_matches"]:
        problems.append("last checkpoint line does not read back to the returned state")
    return problems


def check_desk_scan(out: dict, ref: dict) -> list[str]:
    claims = out["claims"]
    problems = []
    if len(claims) != DESK_CLAIMS:
        problems.append("%d claims scanned, expected %d" % (len(claims), DESK_CLAIMS))
    missing = set(TIGHT_X0) - {c["id"] for c in claims}
    if missing:
        problems.append("tight claims not scanned: %s" % ", ".join(sorted(missing)))
    for c in claims:
        if c["checked"] != ref["cells"]:
            problems.append("%s checked %d cells, pi(%d) = %d"
                            % (c["id"], c["checked"], ref["ceiling"], ref["cells"]))
        if c["indeterminates"]:
            problems.append("%s has %d indeterminates" % (c["id"], c["indeterminates"]))
        if c["largest_failing_x"] is not None and c["largest_failing_x"] >= c["x0"]:
            problems.append("%s fails at %d, at or above its threshold %d"
                            % (c["id"], c["largest_failing_x"], c["x0"]))
        printed = TIGHT_X0.get(c["id"])
        if printed is None:
            continue
        if c["x0"] != printed:
            problems.append("%s threshold is %d, printed %d" % (c["id"], c["x0"], printed))
        if printed <= ref["ceiling"] and c["implied"] != printed:
            problems.append("%s implies threshold %s, printed %d" % (c["id"], c["implied"], printed))
    return problems


def check_gap_window(out: dict, ref: dict) -> list[str]:
    claims = out["claims"]
    problems = []
    if len(claims) != OPERATIONS["gap-window"]:
        problems.append("%d claims scanned, expected %d" % (len(claims), OPERATIONS["gap-window"]))
    for c in claims:
        if c["checked"] != ref["cells"]:
            problems.append("%s checked %d cells, the window [%d, %d] holds %d primes"
                            % (c["id"], c["checked"], ref["lo"], ref["hi"], ref["cells"]))
        if c["failures"] or c["indeterminates"]:
            problems.append("%s has %d failures and %d indeterminates"
                            % (c["id"], c["failures"], c["indeterminates"]))
    return problems


CHECKS = {"accumulate": check_accumulate, "desk-scan": check_desk_scan, "gap-window": check_gap_window}


def cells_of(workload: str, out: dict) -> int:
    """Prime cells the round settled: checked cells summed over claims, or
    for the accumulation the prime cells folded into the exact state."""
    if workload == "accumulate":
        return out["pi"]
    return sum(c["checked"] for c in out["claims"])


# -- processes ------------------------------------------------------------------


FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def child_env(root: str) -> dict:
    """The inherited environment without PRIMEBOUNDS_* and PYTHON* settings,
    plus the fixed settings every workload process runs under."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PRIMEBOUNDS_", "PYTHON"))}
    env.update(FIXED_ENV, PYTHONPATH=os.path.join(root, "src"))
    return env


def run_child(root: str, env: dict, workload: str, inputs: dict, trace: int, tmp: str) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workload.py"), "--workload", workload,
           "--inputs", json.dumps(inputs), "--trace", str(trace), "--tmp", tmp]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "workload process exceeded %d s" % CHILD_TIMEOUT_S}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": "workload process exited with %d\n%s" % (proc.returncode, proc.stderr)}
    return json.loads(lines[-1])


def measure(root: str, workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Run rounds of one workload and return its result object."""
    inputs, ref = make_inputs(workload, seed, size)
    env = child_env(root)
    setups, walls, traced_walls, rss, layers = [], [], [], [], []
    attempted = failed = 0
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=root) as tmp:
        run_child(root, env, "setup", {}, 0, tmp)  # warm the bytecode cache
        for _ in range(SETUP_SAMPLES[size]):
            r = run_child(root, env, "setup", {}, 0, tmp)
            if "error" in r:
                raise BenchError(r["error"])
            setups.append(r["setup_s"])
        began = time.monotonic()
        while True:
            t0 = time.monotonic()
            for traced in (0, 1) if trace else (0,):
                r = run_child(root, env, workload, inputs, traced, tmp)
                attempted += OPERATIONS[workload]
                if "error" in r:
                    failed += OPERATIONS[workload]
                    print("round failed: %s" % r["error"], file=sys.stderr)
                    continue
                problems += CHECKS[workload](r["output"], ref)
                if traced:
                    traced_walls.append(r["wall_s"])
                    layers.append(r["layers"])
                else:
                    setups.append(r["setup_s"])
                    walls.append(r["wall_s"])
                    rss.append(r["peak_rss_mb"])
                    cells = cells_of(workload, r["output"])
            took = time.monotonic() - t0
            if time.monotonic() - began + took / 2 > seconds:
                break
    if not walls or (trace and not layers):
        raise BenchError("no round of %s completed" % workload)
    for p in sorted(set(problems)):
        print("CHECK FAILED %s: %s" % (workload, p), file=sys.stderr)

    wall = statistics.median(walls)
    if trace:
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(traced_walls) - wall
            else:
                value = statistics.median(fig.get(name, 0) for fig in layers)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(rss),
            "primes_per_s": ref["primes"] / wall,
            "cells_per_s": cells / wall,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print("workload %s  seed %d  inputs %s" % (workload, seed, json.dumps(inputs)))
    print("  rounds %d  wall_s per round %s" % (len(walls), " ".join("%.4f" % w for w in walls)))
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


# -- provenance -----------------------------------------------------------------


def provenance(root: str) -> list[str]:
    import mpmath
    import numpy

    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "primebounds")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return [
        "python %s (%s)" % (platform.python_version(), sys.executable),
        "numpy %s  mpmath %s (backend %s)" % (numpy.__version__, mpmath.__version__,
                                              mpmath.libmp.BACKEND),
        "nproc %d (affinity %d)" % (os.cpu_count() or 0, len(os.sched_getaffinity(0))),
        "git commit %s  source sha256 %s" % (commit, digest.hexdigest()[:16]),
        "workload env %s, PYTHONPATH=src, PRIMEBOUNDS_* unset"
        % " ".join("%s=%s" % kv for kv in sorted(FIXED_ENV.items())),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="small inputs, for the tests")
    args = ap.parse_args()
    # on SIGTERM unwind normally: subprocess.run kills and reaps the running
    # workload process and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "primebounds", "__init__.py")):
        print("error: run from the root of a primebounds checkout (no src/primebounds here)",
              file=sys.stderr)
        return 2
    for line in provenance(root):
        print(line)
    print("seed %d  seconds %g  trace %d  size %s"
          % (args.seed, args.seconds, args.trace, "quick" if args.quick else "full"))

    ok = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = measure(root, workload, args.seed, args.seconds, args.trace,
                             "quick" if args.quick else "full")
        except BenchError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            print("  %-44s %.6g %s" % (name, m["value"], m["unit"]))
        print("  attempted %d  failed %d  correct %s"
              % (result["attempted"], result["failed"], result["correct"]))
        print(json.dumps(result))
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
