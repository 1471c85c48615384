#!/usr/bin/env python3
"""Exhaustive lattice verification on a list of small finite algebras.

For every multiplication-closed subspace of each quotient algebra the
script checks, literally from the definitions, that graded-irreducible
and irreducible agree, that the minimal decomposition length matches the
socle dimension, and that all irredundant irreducible decompositions of
zero have equal length.

    python scripts/oracle_exhaustion.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gradix.fields import GF  # noqa: E402
from gradix.groebner import Ideal  # noqa: E402
from gradix.gxparser import parse_poly  # noqa: E402
from gradix.oracle import FiniteAlgebra, dump_fixture, oracle_theorems  # noqa: E402
from gradix.poly import RingSpec  # noqa: E402

FIXTURES = [
    (2, ("x",), ["x^2"]),
    (3, ("x",), ["x^3"]),
    (3, ("x",), ["x^5"]),
    (2, ("x", "y"), ["x^2", "x*y", "y^2"]),
    (3, ("x", "y"), ["x^2", "x*y", "y^2"]),
    (2, ("x", "y"), ["x^2", "y^2"]),
    (3, ("x", "y"), ["x^2", "y^2"]),
    (2, ("x", "y"), ["x^2", "x*y", "y^3"]),
    (3, ("x", "y"), ["x^2+x*y", "x^2-y^2", "y^3"]),
    (2, ("x", "y", "z"), ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]),
    (2, ("x", "y"), ["x^3", "x*y", "y^2"]),
    (3, ("x", "y"), ["x", "y^2"]),
]


def main():
    header = f"{'algebra':<40} {'dim':>4} {'lattice':>8} {'graded':>7} {'r':>3} {'ok':>4}"
    print(header)
    bad = 0
    for p, names, gens in FIXTURES:
        ring = RingSpec.make(GF(p), names)
        I = Ideal(ring, [parse_poly(s, ring) for s in gens])
        A = FiniteAlgebra.from_ideal(I)
        rep = oracle_theorems(A)
        label = f"GF({p})/{','.join(gens)}"
        print(
            f"{label:<40} {A.quotient.dimension:>4} {rep.lattice_size:>8} "
            f"{rep.graded_size:>7} {rep.index_plain:>3} {'yes' if rep.ok else 'NO':>4}"
        )
        if not rep.ok:
            bad += 1
            print(dump_fixture(A))
    print("exhaustion supports the statements on every algebra" if not bad else f"{bad} FAILURES")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
