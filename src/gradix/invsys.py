"""Macaulay inverse systems for ideals primary to the ideal of all
variables: dual modules under contraction, their minimal generators, and
the induced irreducible (and graded-irreducible) decompositions.

The dual space of R/I is spanned by one dual polynomial F_s per standard
monomial s, with coefficient of X^m in F_s equal to the s-coordinate of
the normal form of m.  In those coordinates the contraction action of a
variable is the transpose of its multiplication matrix, so generator
extraction, annihilators, intersection and irredundancy checks are all
plain linear algebra in dimension len(R/I); only the final polynomial
presentations of dual generators need monomial enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .artin import (
    QuotientBasis,
    RadicalCertificate,
    _monomials_of_total_degree as _monomials_of_degree,
    certified_power_bound,
    quotient_basis,
    socle,
)
from .errors import (
    GradixError,
    NotGraded,
    NotIrrelevantPrimary,
    NotPositivelyGraded,
    ScopeError,
)
from .groebner import Ideal, ideal_equal, intersect, intersect_many
from .linalg import Span, kernel_basis, span_of
from .poly import Polynomial, is_homogeneous, mono_divides
from . import artin


class NotMonomial(ScopeError):
    pass


# ---------------------------------------------------------------------------
# dual polynomials


class DualPoly:
    """Polynomial in the dual variables, paired with the ring by
    contraction: x^e acting on X^a gives X^(a-e) when a >= e, else 0."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: dict):
        self.ring = ring
        fz = ring.field.is_zero
        self.terms = {m: c for m, c in terms.items() if not fz(c)}

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((sum(m) for m in self.terms), default=None)

    def __eq__(self, other):
        return (
            isinstance(other, DualPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def dual_names(self):
        names = []
        for n in self.ring.pres_names:
            up = n.upper()
            names.append(up if up != n else "D" + n)
        return names

    def __repr__(self):
        if not self.terms:
            return "<dual 0>"
        names = self.dual_names()
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            factors = [
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(m)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{c}*{body}" if factors else str(c))
        return "<dual " + "+".join(parts) + ">"


def contract(g: Polynomial, F: DualPoly) -> DualPoly:
    """g acting on F by contraction."""
    field = g.ring.field
    out: dict = {}
    for a, fc in F.terms.items():
        for e, gc in g.terms.items():
            if mono_divides(e, a):
                b = tuple(x - y for x, y in zip(a, e))
                c = field.mul(gc, fc)
                if b in out:
                    s = field.add(out[b], c)
                    if field.is_zero(s):
                        del out[b]
                    else:
                        out[b] = s
                else:
                    out[b] = c
    return DualPoly(g.ring, out)


# ---------------------------------------------------------------------------
# inverse systems


@dataclass
class InverseSystem:
    ideal: Ideal
    degree_bound: int  # m^degree_bound is certified inside the ideal
    generators: list  # DualPoly minimal generators under contraction
    generator_coords: list  # coordinates in the F_s basis
    certificate: RadicalCertificate  # owns R/I

    @property
    def generator_count(self) -> int:
        return len(self.generators)


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


def _dual_poly_from_coords(Q: QuotientBasis, coords, bound: int) -> DualPoly:
    """F = sum over monomials m of <NF(m), coords> X^m, cut off at the
    certified power bound."""
    field = Q.ring.field
    terms: dict = {}
    n = Q.ring.npres
    for d in range(bound):
        for m in _monomials_of_degree(n, d):
            v = Q.nf_monomial(m)
            acc = field.zero()
            for a, b in zip(v, coords):
                if not field.is_zero(a) and not field.is_zero(b):
                    acc = field.add(acc, field.mul(a, b))
            if not field.is_zero(acc):
                terms[m] = acc
    return DualPoly(Q.ring, terms)


def _verify_generation(Q: QuotientBasis, coord_list) -> None:
    """The contraction closure of the generators must be the whole dual."""
    field = Q.ring.field
    closure = Span(field, Q.dimension)
    frontier = list(coord_list)
    for c in frontier:
        closure.add(c)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(Q.ring.npres):
                img = Q.apply_var_transpose(i, c)
                if closure.add(img):
                    nxt.append(img)
        frontier = nxt
    if closure.dim != Q.dimension:
        raise GradixError("internal: dual generators fail to generate the inverse system")


def inverse_system(I: Ideal) -> InverseSystem:
    """Minimal contraction generators of the dual module of R/I."""
    cert = _require_irrelevant_primary(I)
    Q = cert.quotient
    bound = certified_power_bound(Q)
    coords = _minimal_generator_coords(Q)
    _verify_generation(Q, coords)
    sd = socle(Q).dimension
    if len(coords) != sd:
        raise GradixError(
            f"internal: {len(coords)} dual generators vs socle dimension {sd}"
        )
    gens = [_dual_poly_from_coords(Q, c, bound) for c in coords]
    return InverseSystem(I, bound, gens, coords, cert)


# ---------------------------------------------------------------------------
# annihilators


def annihilator(F: DualPoly, ring) -> Ideal:
    """Ann(F) = {g : g o F = 0}: a (variables)-primary irreducible ideal,
    certified by a socle-dimension-1 post-check."""
    if F.is_zero():
        raise GradixError("annihilator of the zero dual element")
    d = F.degree()
    n = ring.npres
    field = ring.field
    monos = [m for deg in range(d + 1) for m in _monomials_of_degree(n, deg)]
    index = {m: i for i, m in enumerate(monos)}
    # rows indexed by target dual monomials b: sum_e g_e F_{b+e} = 0
    rows: dict[tuple, list] = {}
    for i, e in enumerate(monos):
        for a, fc in F.terms.items():
            if mono_divides(e, a):
                b = tuple(x - y for x, y in zip(a, e))
                rows.setdefault(b, [field.zero()] * len(monos))[i] = fc
    kern = kernel_basis(field, list(rows.values()), len(monos))
    gens = []
    for v in kern:
        terms = {monos[i]: c for i, c in enumerate(v) if not field.is_zero(c)}
        gens.append(Polynomial(ring, terms, _normalized=True))
    gens.extend(ring.monomial(m) for m in _monomials_of_degree(n, d + 1))
    ideal = Ideal(ring, gens)
    if socle(quotient_basis(ideal)).dimension != 1:
        raise GradixError("internal: annihilator failed the irreducibility certificate")
    return Ideal(ring, list(ideal.groebner_basis()))


def _component_kernels(inv: InverseSystem) -> list[list[list]]:
    """For each dual generator F, the kernel of v -> v o F on R/I
    coordinates (computed degree slice by slice when the ideal is graded,
    so lifts are homogeneous)."""
    Q = inv.certificate.quotient
    field = Q.ring.field
    graded = inv.ideal.is_graded()
    out = []
    for coords in inv.generator_coords:
        # column j is b_j o F; the standard monomials ascend, so the walk
        # finds every divisor of b_j already memoized
        contract_of = {(0,) * Q.ring.npres: coords}
        columns = []
        for m in Q.monomials:
            vec = Q.walk(contract_of, m, Q.apply_var_transpose)
            columns.append({r: c for r, c in enumerate(vec) if not field.is_zero(c)})
        out.append(artin._kernel_by_degree(Q, columns, graded))
    return out


def _quotient_socle_dim_is_one(Q: QuotientBasis, kern: list[list]) -> bool:
    """Socle dimension of (R/I)/W for the subspace W, without new bases."""
    field = Q.ring.field
    D = Q.dimension
    W = span_of(field, D, kern)
    free = [j for j in range(D) if j not in W.rows]
    if not free:
        return False
    rows = []
    for i in range(Q.ring.npres):
        cols = []
        for j in free:
            e = [field.zero()] * D
            e[j] = field.one()
            cols.append(W.reduce(Q.apply_var(i, e)))
        for r in free:
            rows.append([col[r] for col in cols])
    return len(kernel_basis(field, rows, len(free))) == 1


@dataclass
class DecompReport:
    ideal: Ideal
    components: list
    r: int
    r_graded: int | None = None
    irredundant: bool = False
    all_graded: bool = False
    all_irreducible_certified: bool = False
    dual_generators: list = dc_field(default_factory=list)
    certificate: RadicalCertificate | None = None  # of the ideal, with R/I


def decompose(I: Ideal, graded: bool = False) -> DecompReport:
    """Irredundant decomposition of I into irreducible (variables)-primary
    ideals, one per minimal dual generator; with graded=True the input
    must be graded and every component is generated by forms."""
    if graded and not I.is_graded():
        raise NotGraded("graded decomposition of a non-graded ideal")
    inv = inverse_system(I)
    Q = inv.certificate.quotient
    kernels = _component_kernels(inv)
    field = Q.ring.field
    D = Q.dimension

    components = []
    lifts_all = []
    for kern in kernels:
        lifts = [Q.to_poly(v) for v in kern]
        lifts_all.append(lifts)
        components.append(Ideal(I.ring, list(I.gens) + lifts))

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

    certified = all(
        _quotient_socle_dim_is_one(Q, kern) for kern in kernels
    )
    all_graded = graded and all(
        all(is_homogeneous(g) for g in lifts) for lifts in lifts_all
    )
    return DecompReport(
        ideal=I,
        components=components,
        r=len(components),
        irredundant=irredundant,
        all_graded=all_graded,
        all_irreducible_certified=certified,
        dual_generators=inv.generators,
        certificate=inv.certificate,
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
            certs.append(artin.local_socle_dimension(p) == 1)
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


# ---------------------------------------------------------------------------
# monomial splitting


def monomial_split(I: Ideal):
    """If a minimal monomial generator factors into coprime non-unit
    monomials m, m', return (I + (m), I + (m')) with the intersection
    verified equal to I; None when no mixed generator exists."""
    ring = I.ring
    for g in I.gens:
        if len(g.terms) != 1:
            raise NotMonomial("monomial splitting needs a monomial ideal")
    basis = I.groebner_basis()  # minimal monomial generators
    for g in basis:
        (mono, _), = g.terms.items()
        support = [i for i, e in enumerate(mono) if e]
        if len(support) < 2:
            continue
        i = support[0]
        m1 = tuple(e if k == i else 0 for k, e in enumerate(mono))
        m2 = tuple(0 if k == i else e for k, e in enumerate(mono))
        A = Ideal(ring, list(I.gens) + [ring.monomial(m1)])
        B = Ideal(ring, list(I.gens) + [ring.monomial(m2)])
        if not ideal_equal(intersect(A, B), I):
            raise GradixError("internal: monomial split failed verification")
        return A, B
    return None
