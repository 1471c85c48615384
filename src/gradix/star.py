"""The largest graded subideal of an ideal, by two independent algorithms.

The truncated method solves, degree by degree, for the homogeneous
polynomials lying in the ideal; it is provably complete for ideals primary
to the ideal of all variables (every high-degree form already lies in a
certified power of the maximal ideal).  The lambda method scales each
variable by a fresh parameter raised to its weight, saturates, and
eliminates; it handles zero and negative weights, Laurent variables and
non-primary inputs, and the two methods certify each other where their
scopes overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .artin import (
    _monomials_of_total_degree,
    certified_power_bound,
    radical_maximal_certify,
)
from .errors import (
    ConsistencyFailure,
    GradixError,
    MissingBound,
    NotPositivelyGraded,
    NotZeroDimensional,
)
from .groebner import Ideal, _extended_ring, _fresh_name, eliminate, saturate
from .linalg import kernel_basis
from .poly import Polynomial, is_homogeneous, map_to_ring

CERTIFIED = "certified"
BOUNDED = "bounded"
CERTIFIED_LAMBDA = "certified-lambda"


@dataclass
class StarResult:
    ideal: Ideal  # the largest graded subideal, as a reduced basis
    method: str  # "identity" | "truncated" | "lambda"
    certificate: str  # CERTIFIED | BOUNDED | CERTIFIED_LAMBDA
    bound: int | None = None
    finite_field_caveat: bool = False


def _assert_star_invariants(I: Ideal, result: Ideal) -> None:
    # always-on exact checks: contained in I and generated by forms
    for g in result.groebner_basis():
        if not is_homogeneous(g):
            raise GradixError("internal: star output contains a non-homogeneous generator")
        if not I.contains(g):
            raise GradixError("internal: star output is not inside the ideal")


def _reduced(I: Ideal) -> Ideal:
    return Ideal(I.ring, list(I.groebner_basis()))


def homogeneous_piece(I: Ideal, wdeg: int, totdeg_cutoff: int) -> list[Polynomial]:
    """Basis of the homogeneous elements of I of the given weighted degree,
    among polynomials supported on monomials of total degree <= cutoff."""
    ring = I.ring
    field = ring.field
    monos = [
        m
        for d in range(totdeg_cutoff + 1)
        for m in _monomials_of_total_degree(ring.npres, d)
        if ring.weighted_degree(m) == wdeg
    ]
    if not monos:
        return []
    rows: dict[tuple, list] = {}
    for j, m in enumerate(monos):
        nf = I.normal_form(ring.monomial(m))
        for mm, c in nf.terms.items():
            rows.setdefault(mm, [field.zero()] * len(monos))[j] = c
    kern = kernel_basis(field, list(rows.values()), len(monos))
    out = []
    for v in kern:
        terms = {monos[j]: c for j, c in enumerate(v) if not field.is_zero(c)}
        out.append(Polynomial(ring, terms, _normalized=True))
    return out


def star_truncated(I: Ideal, bound: int | None = None) -> StarResult:
    """Degree-by-degree linear algebra; certified for ideals primary to the
    ideal of all variables, bounded otherwise."""
    ring = I.ring
    if not ring.positively_graded:
        raise NotPositivelyGraded("the truncated method needs positive weights")
    D = None
    try:
        cert = radical_maximal_certify(I)
        if cert.irrelevant:
            D = certified_power_bound(cert.quotient)
    except NotZeroDimensional:
        pass
    if D is not None:
        return StarResult(_truncated(I, D - 1, D), "truncated", CERTIFIED)
    if bound is None:
        raise MissingBound(
            "input is not primary to the ideal of all variables; supply a degree bound"
        )
    return StarResult(_truncated(I, bound), "truncated", BOUNDED, bound=bound)


def _truncated(I: Ideal, cutoff: int, power: int | None = None) -> Ideal:
    """The graded subideal spanned by the homogeneous elements of I supported
    in total degree <= cutoff, plus every monomial of total degree `power`
    (certified to lie in I by the caller)."""
    ring = I.ring
    gens: list[Polynomial] = []
    if power is not None:
        gens = [ring.monomial(m) for m in _monomials_of_total_degree(ring.npres, power)]
    wdegs = sorted(
        {
            ring.weighted_degree(m)
            for d in range(cutoff + 1)
            for m in _monomials_of_total_degree(ring.npres, d)
        }
    )
    for wd in wdegs:
        if wd == 0:
            continue
        gens.extend(homogeneous_piece(I, wd, cutoff))
    out = _reduced(Ideal(ring, gens))
    _assert_star_invariants(I, out)
    return out


def star_lambda(I: Ideal) -> StarResult:
    """Scale, saturate, eliminate: x_i -> L^w_i x_i with a fresh parameter
    L, negative powers cleared per generator, then (J : L^inf) cap R."""
    ring = I.ring
    field = ring.field
    lam_name = _fresh_name(ring, "lam")
    ext = _extended_ring(ring, [lam_name])
    lam_idx = ext.index_of(lam_name)
    mapped = []
    for g in I.basis_gens:
        shifts = [ring.weighted_degree(m) for m in g.terms]
        base = -min(shifts)
        terms = {}
        for (m, c), s in zip(g.terms.items(), shifts):
            em = map_to_ring(ring.monomial(m), ext)
            (mm,) = em.terms
            e = list(mm)
            e[lam_idx] = s + base
            terms[tuple(e)] = c
        mapped.append(Polynomial(ext, terms))
    J = Ideal(ext, mapped)
    J = saturate(J, ext.var(lam_name))
    out = eliminate(J, [lam_name], target_ring=ring)
    out = _reduced(out)
    _assert_star_invariants(I, out)
    return StarResult(
        out,
        "lambda",
        CERTIFIED_LAMBDA,
        finite_field_caveat=field.characteristic > 0,
    )


def star(I: Ideal) -> StarResult:
    """Dispatch: graded inputs are fixed points; irrelevant-primary inputs
    use the certified truncated method (which refuses every other input with
    MissingBound); everything else uses the lambda method, cross-checked
    against truncated data when weights allow."""
    ring = I.ring
    if I.is_graded():
        out = _reduced(I)
        return StarResult(out, "identity", CERTIFIED)
    if ring.positively_graded:
        try:
            return star_truncated(I)
        except MissingBound:
            pass
    res = star_lambda(I)
    if ring.positively_graded:
        degs = [g.total_degree() for g in I.gens if not g.is_zero()]
        bound = (max(degs) if degs else 1) + 2
        # star_truncated(I) above already certified I and refused it, so
        # the probe is the bounded solve alone
        for g in _truncated(I, bound).groebner_basis():
            if not res.ideal.contains(g):
                raise ConsistencyFailure(
                    "lambda and truncated methods disagree below the probe bound"
                )
    return res
