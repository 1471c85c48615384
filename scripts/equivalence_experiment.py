#!/usr/bin/env python3
"""Corpus sweep: graded vs ungraded index of reducibility.

Generates seeded random ideals primary to the ideal of all variables,
checks that the two indices agree and that every graded-irreducible
component passes the ungraded certificate, and prints a compact summary
per (field, variable count) cell.  Exits 1 when any ideal fails.

    python scripts/equivalence_experiment.py --count 200 --seed 1
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gradix.corpus import corpus  # noqa: E402
from gradix.fields import GF  # noqa: E402
from gradix.reduc import verify_equivalence  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--primes", default="2,3,5")
    args = ap.parse_args()

    print(f"{'field':>8} {'nvars':>6} {'ideals':>7} {'passed':>7} {'checks':>7} {'secs':>7}")
    failed = 0
    for p in (int(x) for x in args.primes.split(",")):
        for nvars in (2, 3):
            t0 = time.perf_counter()
            ideals = corpus(
                seed=args.seed, count=args.count, field=GF(p), nvars_options=(nvars,)
            )
            rep = verify_equivalence(ideals)
            dt = time.perf_counter() - t0
            print(
                f"{f'GF({p})':>8} {nvars:>6} {rep.total:>7} {rep.passed:>7} "
                f"{rep.checks:>7} {dt:>7.2f}"
            )
            for f in rep.failures:
                print("  FAILURE FIXTURE:", f)
            failed += len(rep.failures)
    print("any failure above contradicts the graded/ungraded equivalence")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
