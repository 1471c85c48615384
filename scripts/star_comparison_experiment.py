#!/usr/bin/env python3
"""Data gathering: how r(I) relates to r(I*) for non-graded ideals.

Builds seeded random zero-dimensional non-graded ideals (a graded base
plus one non-homogeneous element), computes both indices, the local
generator count of I/I*, and the hypothesis/conclusion flags of the
principal-quotient criterion, and prints one row per instance.  Useful
for hunting candidate necessary conditions for r(I) = r(I*).  A met
hypothesis with a failed conclusion contradicts the criterion: the run
prints the ideal and exits 1.  Draws that are graded or refused give no
row; after MAX_DRAWS_PER_ROW draws per requested row the run stops and
exits 1.

    python scripts/star_comparison_experiment.py --count 25 --seed 3
"""

import argparse
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gradix.corpus import random_graded_m_primary  # noqa: E402
from gradix.errors import GradixError, ParseError, TheoremContradiction  # noqa: E402
from gradix.groebner import Ideal  # noqa: E402
from gradix.gxparser import parse_field, render  # noqa: E402
from gradix.poly import RingSpec  # noqa: E402
from gradix.reduc import compare_star  # noqa: E402

MAX_DRAWS_PER_ROW = 100


def random_nongraded(ring, rng):
    base = random_graded_m_primary(ring, rng, max_power=3, max_extra_forms=1, max_form_degree=2)
    # one non-homogeneous element: a form plus a lower-degree tail
    f = ring.zero()
    for name in ring.names:
        f = f + ring.var(name).scale(ring.field.from_int(rng.randint(0, 2)))
    g = ring.var(rng.choice(ring.names)) ** 2
    return Ideal(ring, list(base.gens) + [g + f])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=25)
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--field", default="GF(5)")
    args = ap.parse_args()
    try:
        field = parse_field(args.field)
    except ParseError as e:
        ap.error(f"--field: {e}")
    rng = random.Random(args.seed)
    ring = RingSpec.make(field, ("x", "y"))

    print(f"{'#':>3} {'r':>3} {'r*':>3} {'mu':>3} {'hyp':>4} {'concl':>6}  ideal")
    shown = draws = 0
    while shown < args.count and draws < MAX_DRAWS_PER_ROW * args.count:
        draws += 1
        I = random_nongraded(ring, rng)
        if I.is_graded():
            continue
        try:
            cmp = compare_star(I)
        except TheoremContradiction as e:
            print(f"CONTRADICTION {e}\n  ideal: {render(I)}")
            return 1
        except GradixError:
            continue  # refused or undecided: no row
        shown += 1
        print(
            f"{shown:>3} {cmp.r:>3} {cmp.r_star:>3} {cmp.quotient_generator_count:>3} "
            f"{'yes' if cmp.hypothesis_met else 'no':>4} "
            f"{'yes' if cmp.conclusion_holds else 'no':>6}  {render(I)}"
        )
    if shown < args.count:
        print(f"gave up: {shown} of {args.count} rows after {draws} draws")
        return 1
    print("no aborts: every met hypothesis had a holding conclusion")
    return 0


if __name__ == "__main__":
    sys.exit(main())
