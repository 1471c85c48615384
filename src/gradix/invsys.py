"""Macaulay inverse systems for ideals primary to the ideal of all
variables: dual modules under contraction, their minimal generators, and
the induced irreducible (and graded-irreducible) decompositions.

The dual space of R/I is spanned by one dual polynomial F_s per standard
monomial s, with coefficient of X^m in F_s equal to the s-coordinate of
the normal form of m.  The module works in those coordinates only: the
contraction action of a variable is the transpose of its multiplication
matrix, so generator extraction, annihilators (each component is the
annihilator of one generator, a kernel in R/I), intersection and
irredundancy checks are all plain linear algebra in dimension len(R/I),
and no dual polynomial is ever built.  The dual polynomials themselves
are an independent reference in `tests/oracles.py`.

`decompose` takes each socle once: socle(R/I) certifies the generator
count, so its dimension is r (and r_graded when I is graded), and
socle(R/J) of each component J, in R/J built from J/I
(`gradix.overideal`), is the verdict `reduc.verify_equivalence` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .artin import QuotientBasis, RadicalCertificate, socle
from .errors import (
    GradixError,
    NotGraded,
    NotIrrelevantPrimary,
    NotPositivelyGraded,
    ScopeError,
)
from .groebner import Ideal, ideal_equal, intersect_many
from .linalg import Span, kernel_basis, span_of
from . import artin
from .overideal import closure, over_ideal_certificate


# ---------------------------------------------------------------------------
# inverse systems


@dataclass
class InverseSystem:
    ideal: Ideal
    generator_coords: list  # minimal generators under contraction, in the F_s basis
    certificate: RadicalCertificate  # owns R/I


def _require_irrelevant_primary(I: Ideal) -> RadicalCertificate:
    ring = I.ring
    if not ring.positively_graded:
        raise NotPositivelyGraded(
            "inverse systems need positive weights (no Laurent variables)"
        )
    cert = artin.radical_maximal_certify(I)
    if not cert.irrelevant:
        raise NotIrrelevantPrimary(
            "inverse systems need an ideal primary to the ideal of all variables"
        )
    return cert


def _minimal_generator_coords(Q: QuotientBasis) -> list[list]:
    """Coordinates (in the F_s basis) of minimal contraction generators of
    the dual module: unit vectors completing the row space of the
    multiplication matrices, chosen from the top degree down."""
    field = Q.ring.field
    D = Q.dimension
    W = Span(field, D)
    for i in range(Q.ring.npres):
        rows: dict[int, list] = {}
        for j, col in enumerate(Q.columns[i]):
            for r, a in col.items():
                rows.setdefault(r, [field.zero()] * D)[j] = a
        for row in rows.values():
            W.add(row)
    order_key = Q.order.key
    candidates = sorted(
        range(D), key=lambda s: (-Q.degrees[s], order_key(Q.monomials[s]))
    )
    coords = []
    for s in candidates:
        e = [field.zero()] * D
        e[s] = field.one()
        if W.add(e):
            coords.append(e)
    return coords


def inverse_system(I: Ideal) -> InverseSystem:
    """Minimal contraction generators of the dual module of R/I."""
    cert = _require_irrelevant_primary(I)
    Q = cert.quotient
    coords = _minimal_generator_coords(Q)
    if closure(Q, coords, Q.apply_var_transpose).dim != Q.dimension:
        raise GradixError("internal: dual generators fail to generate the inverse system")
    sd = len(socle(Q))
    if len(coords) != sd:
        raise GradixError(
            f"internal: {len(coords)} dual generators vs socle dimension {sd}"
        )
    return InverseSystem(I, coords, cert)


def _component_kernels(inv: InverseSystem) -> list[list[list]]:
    """For each dual generator F, the kernel of v -> v o F on R/I
    coordinates (computed degree slice by slice when the ideal is graded,
    so lifts are homogeneous)."""
    Q = inv.certificate.quotient
    field = Q.ring.field
    out = []
    for coords in inv.generator_coords:
        # column j is b_j o F; the standard monomials ascend, so the walk
        # finds every divisor of b_j already memoized
        contract_of = {(0,) * Q.ring.npres: coords}
        columns = []
        for m in Q.monomials:
            vec = Q.walk(contract_of, m, Q.apply_var_transpose)
            columns.append({r: c for r, c in enumerate(vec) if not field.is_zero(c)})
        out.append(artin._kernel_by_degree(Q, columns, Q.graded))
    return out


@dataclass
class DecompReport:
    ideal: Ideal
    components: list
    r: int
    r_graded: int | None = None
    irredundant: bool = False
    all_graded: bool = False
    component_certificates: list = dc_field(default_factory=list)  # each with R/J
    component_socle_dimensions: list = dc_field(default_factory=list)  # of each R/J

    @property
    def all_irreducible_certified(self) -> bool:
        return all(d == 1 for d in self.component_socle_dimensions)


def decompose(I: Ideal, graded: bool = False) -> DecompReport:
    """Irredundant decomposition of I into irreducible (variables)-primary
    ideals, one per minimal dual generator; with graded=True the input
    must be graded and every component is generated by forms.  r_graded
    is set when I is graded."""
    if graded and not I.is_graded():
        raise NotGraded("graded decomposition of a non-graded ideal")
    inv = inverse_system(I)
    Q = inv.certificate.quotient
    kernels = _component_kernels(inv)
    field = Q.ring.field
    D = Q.dimension

    # each component J is certified in R/J, built from its subspace J/I of
    # R/I and the certificate of I, with no Groebner basis of J
    certs = [over_ideal_certificate(inv.certificate, kern) for kern in kernels]
    components = [c.quotient.ideal for c in certs]

    # intersection = I: the joint kernel over all generators must vanish
    member_rows = [span_of(field, D, kern).membership_rows() for kern in kernels]
    if kernel_basis(field, [r for rows in member_rows for r in rows], D):
        raise GradixError("internal: decomposition does not intersect back to the ideal")

    # irredundancy: dropping any component must strictly enlarge the intersection
    irredundant = True
    for skip in range(len(kernels)):
        rows = [r for t, rows in enumerate(member_rows) if t != skip for r in rows]
        if not kernel_basis(field, rows, D):
            irredundant = False
            break

    all_graded = graded and all(c.quotient.graded for c in certs)
    # one component per generator, whose count inverse_system checked
    # against socle(R/I); for a graded I primary to (all variables) that is
    # the graded index too (tests/test_quotient_engine.py compares the two)
    r = len(components)
    return DecompReport(
        ideal=I,
        components=components,
        r=r,
        r_graded=r if Q.graded else None,
        irredundant=irredundant,
        all_graded=all_graded,
        component_certificates=certs,
        component_socle_dimensions=[len(socle(c.quotient)) for c in certs],
    )


# ---------------------------------------------------------------------------
# verification of externally supplied decompositions


@dataclass
class VerifyResult:
    valid: bool
    irredundant: bool | None
    certificates: list
    reason: str = ""


def verify_decomposition(I: Ideal, parts) -> VerifyResult:
    """Check that the given ideals intersect to I, certify irreducibility
    of each part where the certified scope allows, and test irredundancy."""
    parts = list(parts)
    if not parts:
        return VerifyResult(False, None, [], "empty decomposition")
    if not ideal_equal(intersect_many(parts), I):
        return VerifyResult(False, None, [], "intersection differs from the ideal")
    certs: list = []
    for p in parts:
        try:
            certs.append(artin.residue_socle_dimension(artin.radical_maximal_certify(p)) == 1)
        except ScopeError:
            certs.append(None)
    if any(c is False for c in certs):
        return VerifyResult(False, None, certs, "a component is reducible")
    irred = True
    if len(parts) > 1:
        for skip in range(len(parts)):
            rest = [p for t, p in enumerate(parts) if t != skip]
            if ideal_equal(intersect_many(rest), I):
                irred = False
                break
    return VerifyResult(True, irred, certs)
