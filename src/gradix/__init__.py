"""gradix: exact computations with graded polynomial (and Laurent) rings.

The package computes Groebner bases, socles and types of Artinian
quotients, indices of reducibility, irreducible and graded-irreducible
decompositions via inverse systems, and the largest graded subideal of a
non-graded ideal, with a brute-force lattice oracle for small finite
algebras and a `gradix` command-line front end.

`__all__` is the library API: fields, ideals and their operations, the
`.gx` parser and renderer, and polynomials.  Every name in it is also
used by the program itself, so none is kept only for re-export.
"""

from .fields import GF, QQ
from .groebner import Ideal, eliminate, ideal_equal, intersect, quotient, saturate
from .gxparser import parse_document, parse_file, parse_poly, render
from .poly import Polynomial, RingSpec

__all__ = [
    "GF",
    "QQ",
    "Ideal",
    "eliminate",
    "ideal_equal",
    "intersect",
    "quotient",
    "saturate",
    "parse_document",
    "parse_file",
    "parse_poly",
    "render",
    "Polynomial",
    "RingSpec",
]
