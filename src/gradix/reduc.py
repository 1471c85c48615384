"""Indices of reducibility, the comparison between an ideal and its
largest graded subideal, and the equivalence harness over a corpus.

`index_of_reducibility` is the one index function: it certifies I and
reads the socle dimension over the residue field off R/I.  Its certified
scope is a zero-dimensional ideal whose radical is maximal (Artinian
local quotient); the CLI's `type` is the same number.  `graded_index` is
the one graded-index function: the socle dimension of a graded R/I, and
for Laurent quotients the index after setting the unit variables to 1.
An ideal is irreducible exactly when its index is 1, and
graded-irreducible exactly when its graded index is 1.
Hypothesis and conclusion of the principal-quotient comparison are
tracked explicitly, and a met hypothesis with a failed conclusion raises
a theorem contradiction rather than returning quietly.

`verify_equivalence` reads its verdicts off one `invsys.decompose` pass:
r is the socle dimension of R/I, and each graded-irreducible component J
is certified by the socle of R/J that the decomposition took, with R/J
built from the subspace J/I of R/I, so no component gets a Groebner basis
or a second socle of its own.  The independent check,
`index_of_reducibility(J) == 1` from a Groebner basis of J, runs in the
tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from . import artin, invsys
from .artin import radical_maximal_certify
from .errors import (
    ContainmentFailure,
    GradixError,
    NoNonzerodivisorFound,
    NotGraded,
    NotStarArtinian,
    NotZeroDimensional,
    ScopeError,
    TheoremContradiction,
)
from .groebner import Ideal, ideal_equal, quotient
from .gxparser import render
from .linalg import Span
from .star import StarResult, star


def index_of_reducibility(I: Ideal) -> int:
    """Socle dimension over the residue field of the (certified maximal)
    radical: the minimal length of an irreducible decomposition."""
    return artin.residue_socle_dimension(radical_maximal_certify(I))


def graded_index(I: Ideal) -> int:
    """Rank of the socle over the graded field.  Without invertible
    variables the graded field is k and the rank is the socle dimension of
    R/I.  With a Laurent unit R/I is typically not finite-dimensional over
    k; the rank is then the index of the Artinian local quotient left by
    setting every unit variable to 1.  The unit ideal is refused: the zero
    ring has no decomposition of 0, so it has no index."""
    if not I.is_graded():
        raise NotGraded("graded index of a non-graded ideal")
    if I.contains(I.ring.one()):
        raise ScopeError("the graded index needs a proper ideal (R/I is zero)")
    try:
        if I.ring.has_laurent:
            return index_of_reducibility(artin.dehomogenize_units(I))
        return len(artin.socle(artin.QuotientBasis(I)))
    except NotZeroDimensional as e:
        raise NotStarArtinian(str(e)) from None


# ---------------------------------------------------------------------------
# the star comparison


def _homogeneous_linear_candidates(ring, rng, attempts: int):
    """Unit variables, then single variables, then random homogeneous
    combinations of variables sharing a weight."""
    for name, inv in zip(ring.names, ring.invertible):
        if inv:
            yield ring.var(name)
    for name in ring.names:
        yield ring.var(name)
    groups: dict[int, list[str]] = {}
    for name, w in zip(ring.names, ring.weights):
        groups.setdefault(w, []).append(name)
    groups = {w: ns for w, ns in groups.items() if len(ns) > 1}
    if not groups:
        return
    weights = sorted(groups)
    for k in range(attempts):
        w = weights[k % len(weights)]
        f = ring.zero()
        for name in groups[w]:
            f = f + ring.var(name).scale(ring.field.from_int(rng.randint(1, 7)))
        yield f


def index_of_star_ideal(S: Ideal) -> int:
    """Index of reducibility of a graded ideal S with *Artinian quotient:
    directly when S is primary to the variables, else through a certified
    homogeneous nonzerodivisor and dehomogenization."""
    try:
        cert = radical_maximal_certify(S)
        if cert.irrelevant:
            return artin.residue_socle_dimension(cert)
    except NotZeroDimensional:
        pass
    rng = random.Random(0x57A2)
    for ell in _homogeneous_linear_candidates(S.ring, rng, attempts=32):
        if ell.is_zero() or S.contains(ell):
            continue
        if not ideal_equal(quotient(S, ell), S):
            continue  # zerodivisor: try the next candidate
        dehom = Ideal(S.ring, list(S.gens) + [ell - S.ring.one()])
        try:
            return index_of_reducibility(dehom)
        except NotZeroDimensional:
            raise NotStarArtinian(
                "quotient by the star ideal is not *Artinian (dehomogenization "
                "is not finite-dimensional)"
            ) from None
    raise NoNonzerodivisorFound(
        "no homogeneous nonzerodivisor found for the star ideal"
    )


@dataclass
class StarComparison:
    r: int
    r_star: int
    quotient_generator_count: int
    quotient_principal: bool
    hypothesis_met: bool
    conclusion_holds: bool
    star_result: StarResult
    radical_graded: bool


def local_min_generators(I: Ideal, at: Ideal, modulo: Ideal | None = None) -> int:
    """Minimal number of generators of I (or of I modulo `modulo`) locally
    at the maximal ideal `at`: the residue-field dimension of I/(at*I + modulo),
    by Nakayama."""
    ring = I.ring
    for g in I.gens:
        if not at.contains(g):
            raise ContainmentFailure("the ideal is not contained in the given maximal ideal")
    cert = radical_maximal_certify(at)
    if not cert.maximal or not ideal_equal(cert.radical, at):
        raise GradixError("localization point is not a maximal ideal")
    J = at.product(I)
    if modulo is not None:
        J = J + modulo
    # span the residue-field module I/(at*I) over k: generators times a
    # k-basis of the residue field (lifted from the quotient by `at`)
    residue_basis = [at.ring.monomial(m) for m in cert.quotient.monomials]
    nfs = [J.normal_form(b * g) for g in I.gens for b in residue_basis]
    support = sorted({m for f in nfs for m in f.terms})
    index = {m: i for i, m in enumerate(support)}
    span = Span(ring.field, len(support))
    for f in nfs:
        row = [ring.field.zero()] * len(support)
        for m, c in f.terms.items():
            row[index[m]] = c
        span.add(row)
    if span.dim % cert.residue_dimension:
        raise GradixError("internal: generator count not divisible by residue degree")
    return span.dim // cert.residue_dimension


def compare_star(I: Ideal) -> StarComparison:
    """r(I) versus r(I*), the local generator count of I/I*, and the
    hypothesis/conclusion bookkeeping of the principal-quotient statement:
    a non-graded ideal with non-graded maximal radical and principal I/I*
    must satisfy r(I) = r(I*)."""
    cert = radical_maximal_certify(I)
    if not cert.maximal:
        raise ScopeError("compare_star needs a zero-dimensional ideal with maximal radical")
    r = artin.residue_socle_dimension(cert)
    st = star(I)
    r_star = index_of_star_ideal(st.ideal)
    mu = local_min_generators(I, cert.radical, modulo=st.ideal)
    principal = mu <= 1
    radical_graded = cert.radical.is_graded()
    hypothesis = (not I.is_graded()) and (not radical_graded) and principal
    conclusion = r == r_star
    if hypothesis and not conclusion:
        raise TheoremContradiction(
            "principal I/I* at a non-graded prime forces r(I) = r(I*)",
            {"ideal": render(I), "r": r, "r_star": r_star, "mu": mu},
        )
    return StarComparison(
        r=r,
        r_star=r_star,
        quotient_generator_count=mu,
        quotient_principal=principal,
        hypothesis_met=hypothesis,
        conclusion_holds=conclusion,
        star_result=st,
        radical_graded=radical_graded,
    )


# ---------------------------------------------------------------------------
# corpus verification harness


@dataclass
class EquivalenceReport:
    total: int = 0
    passed: int = 0
    failures: list = dc_field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_equivalence(corpus) -> EquivalenceReport:
    """For each graded ideal: the plain and graded indices must agree, the
    graded decomposition must exist, and every component must pass the
    ungraded irreducibility certificate, the socle of R/J the decomposition
    took.  Failures are recorded as reproducible fixtures, not raised."""
    rep = EquivalenceReport()
    for I in corpus:
        rep.total += 1
        problems = []
        try:
            # the plain index, the graded index and the decomposition length
            # are all the dimension of the socle of R/I the inverse system
            # took (see invsys.decompose); the two agreements still count
            dec = invsys.decompose(I, graded=True)
            rep.checks += 2
            if not dec.irredundant:
                problems.append("decomposition is redundant")
            if not dec.all_graded:
                problems.append("a component is not graded")
            if not dec.all_irreducible_certified:
                problems.append("a component fails the ungraded irreducibility certificate")
            for comp, sd in zip(dec.components, dec.component_socle_dimensions):
                rep.checks += 1
                if sd != 1:
                    problems.append(f"component {render(comp)} not certified irreducible")
        except GradixError as e:
            problems.append(f"exception: {e}")
        if problems:
            rep.failures.append(
                {
                    "ring": str(I.ring),
                    "ideal": render(I),
                    "problems": problems,
                }
            )
        else:
            rep.passed += 1
    return rep
