"""Ideals J containing a certified zero-dimensional ideal I, read off the
subspace J/I of R/I with no Groebner basis of J.

`quotient_of_subspace` builds R/J FGLM-style (Faugere, Gianni, Lazard,
Mora, "Efficient computation of zero-dimensional Groebner bases by change
of ordering", JSC 16, 1993).  In reduced echelon form with every pivot at
the largest standard monomial of its row, the pivots of J/I are the
leading monomials of J that are standard for I, so the standard
monomials of J are the other standard monomials of I, in the same order.
Each multiplication column of R/J is the column of R/I reduced through
that echelon form, which is the normal form modulo J.

`over_ideal_certificate` derives the certificate of J from that of I
when I is primary to the ideal of all variables.  The decomposition
certifies its components this way, so the component verdict shares R/I
with the decomposition; `QuotientBasis(J)`, from a Groebner basis of J,
is the reference the tests compare it with.
"""

from __future__ import annotations

from .artin import QuotientBasis, RadicalCertificate
from .errors import GradixError, RadicalNotMaximal
from .groebner import Ideal
from .linalg import span_of


def quotient_of_subspace(Q: QuotientBasis, vectors) -> QuotientBasis:
    """R/J for J = I + (vectors), where I is `Q.ideal` and the vectors
    (coordinates in Q) span J/I, which must be an ideal of R/I.  J is
    recorded as graded when I is and every vector is homogeneous."""
    ring = Q.ring
    field = ring.field
    zero = field.zero()
    D = Q.dimension
    vectors = [list(v) for v in vectors]
    # coordinates reversed, so the Span's first-nonzero pivot is the
    # largest standard monomial; its rows are then read back sparse in
    # Q's coordinates, keyed by pivot
    W = span_of(field, D, [v[::-1] for v in vectors])
    rows = {
        D - 1 - p: {D - 1 - r: c for r, c in enumerate(row) if not field.is_zero(c)}
        for p, row in W.rows.items()
    }

    def add_multiple(out: dict, c, vec: dict) -> None:
        for r, a in vec.items():
            s = field.add(out.get(r, zero), field.mul(c, a))
            if field.is_zero(s):
                out.pop(r, None)
            else:
                out[r] = s

    def reduce(vec: dict) -> dict:
        # every row is zero at the other pivots, so subtracting each pivot
        # entry's multiple of its row once leaves no pivot entry
        hits = [p for p in vec if p in rows]
        if not hits:
            return vec
        out = dict(vec)
        for p in hits:
            add_multiple(out, field.neg(vec[p]), rows[p])
        return out

    for row in rows.values():
        for cols in Q.columns:
            image: dict = {}
            for k, c in row.items():
                add_multiple(image, c, cols[k])
            if reduce(image):
                raise GradixError("internal: the subspace is not an ideal of the quotient")
    keep = [k for k in range(D) if k not in rows]
    new = {k: j for j, k in enumerate(keep)}
    out = QuotientBasis.__new__(QuotientBasis)
    out.ideal = Ideal(ring, list(Q.ideal.gens) + [Q.to_poly(v) for v in vectors])
    out.ring = ring
    out.order = Q.order
    out.monomials = [Q.monomials[k] for k in keep]
    out.index = {m: j for j, m in enumerate(out.monomials)}
    out.dimension = len(keep)
    out.degrees = [Q.degrees[k] for k in keep]
    out.columns = [
        [{new[r]: c for r, c in reduce(cols[k]).items()} for k in keep] for cols in Q.columns
    ]
    out._graded = Q.graded and all(
        len({Q.degrees[k] for k, c in enumerate(v) if not field.is_zero(c)}) <= 1
        for v in vectors
    )
    out._one = Q._one
    out._mono_nf = {out._one: [zero] * out.dimension}
    if out.dimension:
        out._mono_nf[out._one][out.index[out._one]] = field.one()
    return out


def over_ideal_certificate(cert: RadicalCertificate, vectors) -> RadicalCertificate:
    """Certificate of J = I + (vectors), where the vectors span J/I in
    `cert.quotient`.  Sound because I is primary to the ideal of all
    variables: J contains I, so its radical is that maximal ideal too
    whenever R/J is not zero."""
    if not cert.irrelevant:
        raise GradixError("internal: over-ideal certificates need I primary to all variables")
    quotient = quotient_of_subspace(cert.quotient, vectors)
    if not quotient.dimension:
        raise RadicalNotMaximal("the over-ideal is the unit ideal")
    return RadicalCertificate(True, cert.radical, 1, True, quotient)
