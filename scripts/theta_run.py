#!/usr/bin/env python3
"""Checkpointed exact accumulation of pi, theta, and the prime sums.

Demonstrates the resumable accumulator directly from the library: run to a
target, appending checkpoints along the way, and resume from the newest
line of an earlier checkpoint file after an interruption.

    python3 scripts/theta_run.py --to 5000000000 --checkpoint run.jsonl --every 500000000
    python3 scripts/theta_run.py --to 5000000000 --resume run.jsonl
"""

import argparse
import sys
import time

from primebounds import sieve


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--to", type=int, required=True, help="accumulate up to this x")
    ap.add_argument("--checkpoint", metavar="PATH", help="append checkpoints here")
    ap.add_argument("--every", type=int, help="x-distance between checkpoint lines")
    ap.add_argument("--resume", metavar="PATH", help="resume from this checkpoint file")
    ap.add_argument("--segment-size", type=int, default=sieve.DEFAULT_SEGMENT_ODDS)
    ap.add_argument("--full", action="store_true", help="also print the prime sums")
    args = ap.parse_args()

    resume_state = None
    if args.resume:
        with open(args.resume) as fh:
            resume_state = sieve.read_checkpoint(fh)
        print("resuming from x=%d (pi=%d)" % (resume_state.x, resume_state.pi), file=sys.stderr)

    t0 = time.monotonic()
    state = sieve.pi_theta_at(
        args.to,
        resume_from=resume_state,
        segment_odds=args.segment_size,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.every,
    )
    print("accumulated to %d in %.1fs" % (state.x, time.monotonic() - t0), file=sys.stderr)

    print("x %d" % state.x)
    print("pi %d" % state.pi)
    print("theta [%s, %s]" % state.theta.float_pair())
    if args.full:
        print("sum_recip [%s, %s]" % state.sum_recip.float_pair())
        print("sum_logp [%s, %s]" % state.sum_logp.float_pair())
        print("sum_log1m [%s, %s]" % state.sum_log1m.float_pair())
    return 0


if __name__ == "__main__":
    sys.exit(main())
