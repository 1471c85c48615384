"""Indices of reducibility, irreducibility predicates, decomposition
reports, and the comparison between an ideal and its largest graded
subideal.

Certified scope for the plain index is a zero-dimensional ideal whose
radical is maximal (Artinian local quotient); the graded index extends to
Laurent quotients by dehomogenizing at the unit variable.  Hypothesis and
conclusion of the principal-quotient comparison are tracked explicitly,
and a met hypothesis with a failed conclusion raises a theorem
contradiction rather than returning quietly.
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
from .invsys import DecompReport
from .linalg import Span
from .star import StarResult, star


def index_of_reducibility(I: Ideal) -> int:
    """Socle dimension over the residue field of the (certified maximal)
    radical: the minimal length of an irreducible decomposition."""
    return artin.local_socle_dimension(I)


def graded_index(I: Ideal) -> int:
    """Graded socle rank; for Laurent rings computed after setting the
    unit variable to 1."""
    if not I.is_graded():
        raise NotGraded("graded index of a non-graded ideal")
    try:
        return artin.graded_socle_rank(I).rank
    except NotZeroDimensional as e:
        raise NotStarArtinian(str(e)) from None


@dataclass(frozen=True)
class IrreducibilityVerdict:
    certified: bool
    irreducible: bool | None
    reason: str = ""

    def __bool__(self):
        return bool(self.irreducible)


def is_irreducible(I: Ideal) -> IrreducibilityVerdict:
    """Certified True/False inside the zero-dimensional maximal-radical
    scope; Uncertified (with diagnostics) outside it."""
    try:
        r = index_of_reducibility(I)
    except ScopeError as e:
        return IrreducibilityVerdict(False, None, f"uncertified: {e}")
    return IrreducibilityVerdict(True, r == 1)


def is_graded_irreducible(I: Ideal) -> IrreducibilityVerdict:
    if not I.is_graded():
        raise NotGraded("graded irreducibility of a non-graded ideal")
    try:
        rg = graded_index(I)
    except ScopeError as e:
        return IrreducibilityVerdict(False, None, f"uncertified: {e}")
    return IrreducibilityVerdict(True, rg == 1)


def decompose_report(I: Ideal, graded: bool = False) -> DecompReport:
    """Decomposition via the inverse system, with the graded index checked
    against the plain index for graded inputs."""
    rep = invsys.decompose(I, graded=graded)
    r = artin.residue_socle_dimension(rep.certificate)
    if rep.r != r:
        raise GradixError("internal: component count differs from the socle dimension")
    if I.is_graded():
        rg = artin.graded_socle_rank(rep.certificate.quotient).rank
        rep.r_graded = rg
        if r != rg:
            raise TheoremContradiction(
                "graded and ungraded indices of reducibility must agree on graded ideals",
                {"ideal": render(I), "r": r, "r_graded": rg},
            )
    return rep


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


def index_of_star_ideal(S: Ideal, seed: int = 0) -> int:
    """Index of reducibility of a graded ideal S with *Artinian quotient:
    directly when S is primary to the variables, else through a certified
    homogeneous nonzerodivisor and dehomogenization."""
    try:
        cert = radical_maximal_certify(S)
        if cert.irrelevant:
            return artin.residue_socle_dimension(cert)
    except NotZeroDimensional:
        pass
    rng = random.Random(seed or 0x57A2)
    for ell in _homogeneous_linear_candidates(S.ring, rng, attempts=32):
        if ell.is_zero() or S.contains(ell):
            continue
        if not ideal_equal(quotient(S, ell), S):
            continue  # zerodivisor: try the next candidate
        dehom = Ideal(S.ring, list(S.gens) + [ell - S.ring.one()])
        try:
            return artin.local_socle_dimension(dehom)
        except NotZeroDimensional:
            raise NotStarArtinian(
                "quotient by the star ideal is not *Artinian (dehomogenization "
                "is not finite-dimensional)"
            ) from None
    raise NoNonzerodivisorFound(
        "no homogeneous nonzerodivisor found for the star ideal"
    )


def index_of_star(I: Ideal, precomputed: StarResult | None = None) -> int:
    st = precomputed or star(I)
    return index_of_star_ideal(st.ideal)


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
    ungraded irreducibility certificate.  Failures are recorded as
    reproducible fixtures, not raised."""
    rep = EquivalenceReport()
    for I in corpus:
        rep.total += 1
        problems = []
        try:
            # r and the graded socle rank are read off the certificate the
            # decomposition made, so I is certified and R/I built once
            dec = invsys.decompose(I, graded=True)
            r = artin.residue_socle_dimension(dec.certificate)
            rg = artin.graded_socle_rank(dec.certificate.quotient).rank
            rep.checks += 1
            if r != rg:
                problems.append(f"r={r} differs from graded index {rg}")
            rep.checks += 1
            if dec.r != r:
                problems.append(f"decomposition length {dec.r} differs from r={r}")
            if not dec.irredundant:
                problems.append("decomposition is redundant")
            if not dec.all_graded:
                problems.append("a component is not graded")
            if not dec.all_irreducible_certified:
                problems.append("a component fails the ungraded irreducibility certificate")
            for comp in dec.components:
                rep.checks += 1
                verdict = is_irreducible(comp)
                if verdict.irreducible is not True:
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
