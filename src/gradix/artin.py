"""Linear algebra of Artinian quotients R/I: multiplication structure,
socles, graded socle ranks, type, Hilbert functions, and radical-maximality
certification.

The quotient algebra is its multiplication columns: `QuotientBasis.columns`
holds, for each variable, the coordinates of x_i * b for every standard
monomial b, and every product, power, action matrix and monomial normal
form is walked through them.  `Ideal.normal_form` runs only for the
boundary columns (x_i * b not standard) and, in `action_matrix`, once to
reduce the acting polynomial g.

The socle of a graded quotient is computed degree slice by degree slice so
its basis is homogeneous by construction; the ungraded path stacks the
multiplication matrices and takes one kernel.  The index of reducibility
of an ideal whose radical is the ideal of all variables is that socle,
taken from the sparse columns; only other maximal radicals (translated
points, non-rational residue fields) build dense action matrices of the
radical's generators (`socle_wrt`), which stays the reference the column
path is tested against.  Minimal polynomials store each reduced power
with its pivot, so a new power is reduced in one pass over the stored
ones.

`radical_maximal_certify` is the one place that decides whether I is in
certified scope, and the `RadicalCertificate` it returns owns the
`QuotientBasis` of R/I it built to decide that.  Every layer that certifies
an ideal reads R/I from the certificate (`residue_socle_dimension`, the
inverse system, the truncated star, Nakayama counts) instead of rebuilding
it, and a public call certifies each ideal once.  The quotient lives as
long as the certificate, i.e. for one call: a memo of one quotient per
ideal kept them alive across calls and raised the corpus benchmark's peak
RSS past its 5% bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    GradixError,
    NotGraded,
    NotPositivelyGraded,
    NotZeroDimensional,
    RadicalNotMaximal,
)
from .groebner import Ideal, ideal_equal, standard_monomials
from .linalg import kernel_basis
from .poly import Polynomial, is_homogeneous
from .upoly import qq_irreducible, squarefree_part


class QuotientBasis:
    """Standard monomials of a zero-dimensional ideal together with the
    multiplication matrices of all presentation variables."""

    def __init__(self, ideal: Ideal, order=None):
        self.ideal = ideal
        self.ring = ideal.ring
        self.order = order or self.ring.default_order()
        sm = standard_monomials(ideal, self.order)
        if sm is None:
            raise NotZeroDimensional(f"quotient by {ideal!r} is not finite-dimensional")
        self.monomials: list[tuple] = sm
        self.index = {m: i for i, m in enumerate(sm)}
        self.dimension = len(sm)
        self.degrees = [self.ring.weighted_degree(m) for m in sm]
        field = self.ring.field
        self.columns: list[list[dict]] = []
        for i in range(self.ring.npres):
            cols = []
            for b in self.monomials:
                shifted = list(b)
                shifted[i] += 1
                shifted = tuple(shifted)
                if shifted in self.index:
                    cols.append({self.index[shifted]: field.one()})
                else:
                    nf = ideal.normal_form(self.ring.monomial(shifted), self.order)
                    cols.append({self.index[m]: c for m, c in nf.terms.items()})
            self.columns.append(cols)
        self._one = (0,) * self.ring.npres
        if self.dimension:
            unit = [field.zero()] * self.dimension
            unit[self.index[self._one]] = field.one()
            self._mono_nf: dict = {self._one: unit}
        else:
            self._mono_nf = {self._one: []}

    # -- coordinates ---------------------------------------------------------

    def walk(self, cache: dict, m: tuple, step) -> list:
        """Vector of the monomial m in a memo keyed by monomials: from the
        nearest memoized divisor on the chain that lowers the first nonzero
        exponent, apply `step(i, vec)` once per variable, memoizing each
        intermediate.  Iterative, so the degree of m is unbounded."""
        path = []
        while m not in cache:
            i = next(k for k, e in enumerate(m) if e)
            path.append((m, i))
            m = m[:i] + (m[i] - 1,) + m[i + 1 :]
        vec = cache[m]
        for mono, i in reversed(path):
            vec = step(i, vec)
            cache[mono] = vec
        return vec

    def nf_monomial(self, m: tuple) -> list:
        """Coordinates of the normal form of a monomial, memoized and
        computed incrementally through the multiplication structure.  The
        returned list is shared with the memo and must not be modified."""
        return self.walk(self._mono_nf, m, self.apply_var)

    def to_poly(self, vec) -> Polynomial:
        field = self.ring.field
        terms = {m: c for m, c in zip(self.monomials, vec) if not field.is_zero(c)}
        return Polynomial(self.ring, terms, _normalized=True)

    def apply_var(self, i: int, vec: list) -> list:
        field = self.ring.field
        out = [field.zero()] * self.dimension
        cols = self.columns[i]
        for j, c in enumerate(vec):
            if field.is_zero(c):
                continue
            for r, a in cols[j].items():
                out[r] = field.add(out[r], field.mul(a, c))
        return out

    def apply_var_transpose(self, i: int, vec: list) -> list:
        """The transpose of `apply_var`: contraction by the i-th variable
        on dual coordinates."""
        field = self.ring.field
        out = []
        for col in self.columns[i]:
            acc = field.zero()
            for r, a in col.items():
                if not field.is_zero(vec[r]):
                    acc = field.add(acc, field.mul(a, vec[r]))
            out.append(acc)
        return out

    def _apply_terms(self, terms, vec: list) -> list:
        """Coordinates of (sum of c * x^m over terms) times vec; every
        monomial is walked up from vec through `apply_var`."""
        field = self.ring.field
        out = [field.zero()] * self.dimension
        powers = {self._one: vec}
        for m, c in terms:
            for r, a in enumerate(self.walk(powers, m, self.apply_var)):
                if not field.is_zero(a):
                    out[r] = field.add(out[r], field.mul(c, a))
        return out

    def action_matrix(self, g: Polynomial) -> list[list]:
        """Dense matrix (rows) of multiplication by g on the quotient: g is
        reduced once, then its terms act on each basis vector."""
        field = self.ring.field
        D = self.dimension
        rows = [[field.zero()] * D for _ in range(D)]
        terms = list(self.ideal.normal_form(g, self.order).terms.items())
        if not terms:
            return rows
        for j in range(D):
            unit = [field.zero()] * D
            unit[j] = field.one()
            for r, c in enumerate(self._apply_terms(terms, unit)):
                if not field.is_zero(c):
                    rows[r][j] = c
        return rows

    def var_matrix(self, i: int) -> list[list]:
        field = self.ring.field
        rows = [[field.zero()] * self.dimension for _ in range(self.dimension)]
        for j, col in enumerate(self.columns[i]):
            for r, c in col.items():
                rows[r][j] = c
        return rows

    def multiply(self, u: list, v: list) -> list:
        field = self.ring.field
        terms = [(m, c) for m, c in zip(self.monomials, u) if not field.is_zero(c)]
        return self._apply_terms(terms, v)

    def element_power(self, vec: list, e: int) -> list:
        out = list(self.nf_monomial(self._one))
        base = list(vec)
        while e:
            if e & 1:
                out = self.multiply(out, base)
            e >>= 1
            if e:
                base = self.multiply(base, base)
        return out


def quotient_basis(I: Ideal, order=None) -> QuotientBasis:
    return QuotientBasis(I, order)


def _monomials_of_total_degree(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for e in range(d + 1):
        for rest in _monomials_of_total_degree(n - 1, d - e):
            yield (e,) + rest


def certified_power_bound(Q: QuotientBasis) -> int:
    """Smallest d, certified by direct normal forms, with every total-degree-d
    monomial inside the ideal (so the d-th power of the irrelevant maximal
    ideal is contained in it)."""
    field = Q.ring.field
    n = Q.ring.npres
    start = max((sum(m) for m in Q.monomials), default=0) + 1
    for d in range(start, Q.dimension + 2):
        if all(
            all(field.is_zero(c) for c in Q.nf_monomial(m))
            for m in _monomials_of_total_degree(n, d)
        ):
            return d
    raise GradixError("internal: length bound failed to certify a power of the maximal ideal")


# ---------------------------------------------------------------------------
# socles


@dataclass
class SocleData:
    vectors: list
    polynomials: list
    dimension: int
    homogeneous_flags: list
    degree_histogram: dict

    def __iter__(self):
        return iter(self.polynomials)


def _kernel_by_degree(Q: QuotientBasis, columns: list[dict], graded: bool) -> list[list]:
    """Kernel of the linear map on R/I whose j-th column is the sparse
    `columns[j]` (row key -> entry).  When `graded`, the map must preserve
    degree; the kernel is then taken one degree slice at a time, so every
    kernel vector is homogeneous."""
    field = Q.ring.field
    slices: dict[int, list[int]] = {}
    for j, d in enumerate(Q.degrees if graded else [0] * Q.dimension):
        slices.setdefault(d, []).append(j)
    out = []
    for d in sorted(slices):
        idxs = slices[d]
        keys = sorted({k for j in idxs for k in columns[j]})
        rows = [[columns[j].get(k, field.zero()) for j in idxs] for k in keys]
        for kv in kernel_basis(field, rows, len(idxs)):
            full = [field.zero()] * Q.dimension
            for pos, j in enumerate(idxs):
                full[j] = kv[pos]
            out.append(full)
    return out


def socle(Q: QuotientBasis) -> SocleData:
    """Basis of 0 : (all variables) in R/I; homogeneous by construction
    when the ideal is graded."""
    columns = [
        {(i, r): a for i in range(Q.ring.npres) for r, a in Q.columns[i][j].items()}
        for j in range(Q.dimension)
    ]
    return _make_socle_data(Q, _kernel_by_degree(Q, columns, Q.ideal.is_graded()))


def socle_wrt(Q: QuotientBasis, annihilators) -> SocleData:
    """Basis of 0 : (g_1, ..., g_k) in R/I for arbitrary ideal generators;
    a generator inside I acts as zero and adds no rows."""
    reduced = (Q.ideal.normal_form(g, Q.order) for g in annihilators)
    rows = [row for g in reduced if not g.is_zero() for row in Q.action_matrix(g)]
    return _make_socle_data(Q, kernel_basis(Q.ring.field, rows, Q.dimension))


def _make_socle_data(Q: QuotientBasis, vectors) -> SocleData:
    polys = [Q.to_poly(v) for v in vectors]
    flags = [is_homogeneous(p) for p in polys]
    hist: dict[int, int] = {}
    for p, h in zip(polys, flags):
        if h and not p.is_zero():
            d = Q.ring.weighted_degree(next(iter(p.terms)))
            hist[d] = hist.get(d, 0) + 1
    return SocleData(vectors, polys, len(vectors), flags, hist)


# ---------------------------------------------------------------------------
# radical and maximality certification


@dataclass
class RadicalCertificate:
    """Scope decision for a zero-dimensional ideal I, together with the
    quotient R/I it was decided on.  Callers take R/I from `quotient`
    rather than building it again; the certificate, not the ideal, owns
    it, so it is freed with the certificate at the end of the call (a
    per-ideal memo outlived its calls and broke the peak-RSS bound)."""

    maximal: bool
    radical: Ideal
    residue_dimension: int
    irrelevant: bool  # radical equals the ideal of all variables
    quotient: QuotientBasis  # R/I in the order the certificate was made for


def minimal_polynomial(Q: QuotientBasis, element) -> list:
    """Monic minimal polynomial (ascending coefficients) of an element of
    the quotient algebra; `element` is a variable index or a coordinate
    vector."""
    field = Q.ring.field
    if isinstance(element, int):
        step = lambda v: Q.apply_var(element, v)
    else:
        elem = list(element)
        step = lambda v: Q.multiply(v, elem)
    # track each power of the element against the span of earlier powers;
    # every stored vector is zero at the pivots stored before it, so one
    # pass in insertion order reduces a new power completely
    aug: list[tuple[int, list, list]] = []  # (pivot, reduced vector, combination over powers)
    power = Q.nf_monomial(Q._one)
    k = 0
    while True:
        combo = [field.zero()] * (k + 1)
        combo[k] = field.one()
        vec = list(power)
        for pivot, red, cmb in aug:
            if field.is_zero(vec[pivot]):
                continue
            factor = field.div(vec[pivot], red[pivot])
            vec = [field.sub(a, field.mul(factor, b)) for a, b in zip(vec, red)]
            for i, c in enumerate(cmb):
                combo[i] = field.sub(combo[i], field.mul(factor, c))
        pivot = next((i for i, c in enumerate(vec) if not field.is_zero(c)), None)
        if pivot is None:
            # dependency: sum combo_i * element^i = 0, normalized monic
            inv = field.inv(combo[k])
            return [field.mul(c, inv) for c in combo]
        aug.append((pivot, vec, combo))
        power = step(power)
        k += 1
        if k > Q.dimension:
            raise GradixError("internal: minimal polynomial search exceeded dimension")


def _univariate_to_poly(ring, coeffs, var_index: int) -> Polynomial:
    field = ring.field
    terms = {}
    for e, c in enumerate(coeffs):
        if field.is_zero(c):
            continue
        m = [0] * ring.npres
        m[var_index] = e
        terms[tuple(m)] = c
    return Polynomial(ring, terms, _normalized=True)


def _frobenius_component_count(A: QuotientBasis) -> int:
    """Number of maximal ideals of a reduced GF(p) algebra: the dimension
    of the fixed space of v -> v^p."""
    field = A.ring.field
    p = field.characteristic
    rows = [[field.zero()] * A.dimension for _ in range(A.dimension)]
    for j in range(A.dimension):
        e = [field.zero()] * A.dimension
        e[j] = field.one()
        img = A.element_power(e, p)
        img[j] = field.sub(img[j], field.one())
        for r, c in enumerate(img):
            rows[r][j] = c
    return len(kernel_basis(field, rows, A.dimension))


def _qq_is_field(A: QuotientBasis, attempts: int = 32) -> bool:
    """Is the reduced QQ-algebra A a field?  Decides via the minimal
    polynomial of a primitive element (variables first, then seeded random
    combinations)."""
    import random

    field = A.ring.field
    d = A.dimension
    candidates: list = list(range(A.ring.npres))
    reducible_seen = False
    for cand in candidates:
        mp = minimal_polynomial(A, cand)
        if len(mp) - 1 == d:
            return qq_irreducible(mp)
        if len(mp) > 2 and not qq_irreducible(mp):
            return False  # a subalgebra already splits
    rng = random.Random(0xA11CE)
    for trial in range(attempts):
        bound = 2 + trial
        coeffs = [field.from_int(rng.randint(-bound, bound)) for _ in range(A.ring.npres)]
        vec = [field.zero()] * d
        for i, c in enumerate(coeffs):
            if field.is_zero(c):
                continue
            col = A.nf_monomial(tuple(1 if k == i else 0 for k in range(A.ring.npres)))
            vec = [field.add(a, field.mul(c, b)) for a, b in zip(vec, col)]
        mp = minimal_polynomial(A, vec)
        if len(mp) - 1 == d:
            return qq_irreducible(mp)
        if len(mp) > 2 and not qq_irreducible(mp):
            return False
    raise GradixError("no primitive element found; cannot certify maximality")


def radical_maximal_certify(I: Ideal, order=None) -> RadicalCertificate:
    """Compute the radical of a zero-dimensional ideal (squarefree parts of
    the variables' minimal polynomials, sound over QQ and prime fields) and
    decide whether it is maximal."""
    ring = I.ring
    Q = QuotientBasis(I, order)
    extra = []
    for i in range(ring.npres):
        mp = minimal_polynomial(Q, i)
        sq = squarefree_part(mp, ring.field)
        if len(sq) != len(mp):
            extra.append(_univariate_to_poly(ring, sq, i))
    radical = Ideal(ring, list(I.gens) + extra) if extra else I
    A = QuotientBasis(radical, order) if extra else Q
    d = A.dimension
    if d == 1:
        maximal = True
    elif ring.field.characteristic > 0:
        maximal = _frobenius_component_count(A) == 1
    else:
        maximal = _qq_is_field(A)
    vars_ideal = Ideal(ring, [ring.var(n) for n in ring.names])
    irrelevant = ideal_equal(radical, vars_ideal)
    return RadicalCertificate(maximal, radical, d, irrelevant, Q)


# ---------------------------------------------------------------------------
# derived invariants


def residue_socle_dimension(cert: RadicalCertificate) -> int:
    """Socle dimension of the certified quotient over its residue field;
    this is the index of reducibility.

    When the radical is the ideal of all variables (and no variable is a
    Laurent unit) the socle is `socle(cert.quotient)`, read off the sparse
    multiplication columns one degree slice at a time for graded ideals.
    Any other maximal radical (a translated point, a residue field
    QQ(sqrt c)) goes through `socle_wrt` and the action matrices of the
    radical's generators."""
    if not cert.maximal:
        raise RadicalNotMaximal(
            "radical is not maximal; the index of reducibility of general "
            "primary ideals is outside certified scope"
        )
    Q = cert.quotient
    if cert.irrelevant and not Q.ring.has_laurent:
        sd = socle(Q).dimension
    else:
        sd = socle_wrt(Q, cert.radical.gens).dimension
    if sd % cert.residue_dimension:
        raise GradixError("internal: socle dimension not divisible by residue degree")
    return sd // cert.residue_dimension


def local_socle_dimension(I: Ideal) -> int:
    """Socle dimension over the residue field for a zero-dimensional ideal
    with maximal radical; this is the index of reducibility."""
    return residue_socle_dimension(radical_maximal_certify(I))


def type_of_quotient(I: Ideal) -> int:
    """Cohen-Macaulay type of the Artinian quotient R/I: socle dimension
    over the residue field of the (certified maximal) radical."""
    return local_socle_dimension(I)


@dataclass
class GradedSocleRank:
    rank: int
    histogram: dict | None


def graded_socle_rank(arg) -> GradedSocleRank:
    """Rank of the socle over the graded field; accepts an Ideal or a
    QuotientBasis.

    Without invertible variables the graded field is k and the rank is the
    socle dimension, with its degree histogram.  With a Laurent unit the
    quotient is typically not finite-dimensional over k; the rank is then
    computed after dehomogenizing (unit variable set to 1), which
    identifies it with the type of the resulting Artinian local quotient.
    """
    if isinstance(arg, QuotientBasis):
        I, Q = arg.ideal, arg
    else:
        I, Q = arg, None
    if not I.is_graded():
        raise NotGraded("graded socle rank needs a graded ideal")
    ring = I.ring
    if ring.has_laurent:
        dehom = dehomogenize_units(I)
        return GradedSocleRank(local_socle_dimension(dehom), None)
    data = socle(Q if Q is not None else QuotientBasis(I))
    return GradedSocleRank(data.dimension, dict(data.degree_histogram))


def dehomogenize_units(I: Ideal) -> Ideal:
    """Adjoin v - 1 for every invertible variable."""
    ring = I.ring
    extra = [ring.var(n) - ring.one() for n, inv in zip(ring.names, ring.invertible) if inv]
    return Ideal(ring, list(I.gens) + extra)


def hilbert_function(Q: QuotientBasis) -> list[tuple[int, int]]:
    """Dimensions of the graded pieces of R/I, ascending by degree."""
    if not Q.ideal.is_graded():
        raise NotGraded("Hilbert function needs a graded ideal")
    if not Q.ring.positively_graded:
        raise NotPositivelyGraded("Hilbert function needs positive weights")
    hist: dict[int, int] = {}
    for d in Q.degrees:
        hist[d] = hist.get(d, 0) + 1
    return sorted(hist.items())
