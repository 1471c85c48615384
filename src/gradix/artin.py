"""Linear algebra of Artinian quotients R/I: multiplication structure,
socles, Hilbert functions, and radical-maximality certification.

The quotient algebra is its multiplication columns: `QuotientBasis.columns`
holds, for each variable, the coordinates of x_i * b for every standard
monomial b, and every product, power, action matrix and monomial normal
form is walked through them.  `Ideal.normal_form` runs only for the
boundary columns (x_i * b not standard) and, in `action_matrix`, once to
reduce the acting polynomial g.

Every linear map on R/I is held as sparse columns (row -> entry), the
form of `QuotientBasis.columns[i]`: the multiplication by a variable, the
`action_matrix` of a polynomial, and v -> v^p - v in the Frobenius count.
A socle is its basis as a list of coordinate vectors in R/I (`len` is
its dimension, `QuotientBasis.to_poly` renders a vector): the joint
kernel of the maps, stacked into one.  For a graded quotient it is
computed one degree slice at a time, so the basis is homogeneous; the
ungraded path takes one kernel.  `residue_socle_dimension` reads the
index of reducibility off a certificate: the socle of the variables'
columns when the radical is the ideal of all variables, else `socle_wrt`
on the action matrices of the radical's generators (translated points,
non-rational residue fields), which stays the reference the column path
is tested against.  Minimal polynomials store each reduced power with
its pivot, so a new power is reduced in one pass over the stored ones.

`radical_maximal_certify` is the one place that decides whether I is in
certified scope, and the `RadicalCertificate` it returns owns the
`QuotientBasis` of R/I it built to decide that.  Every layer that certifies
an ideal reads R/I from the certificate (`residue_socle_dimension`, the
inverse system, the truncated star, Nakayama counts) instead of rebuilding
it, and a public call certifies each ideal once.  The quotient lives as
long as the certificate, i.e. for one call: a memo of one quotient per
ideal kept them alive across calls and raised the corpus benchmark's peak
RSS past its 5% bound.

`QuotientBasis` is built two ways, both through `_setup`, which derives
the coordinates, degrees and unit from the standard monomials: from a
Groebner basis of I (`QuotientBasis(I)`), and from standard monomials
and columns read off another quotient (`QuotientBasis.from_columns`).
Ideals containing a certified I are built the second way in
`gradix.overideal`; such a quotient knows whether it is graded
(`QuotientBasis.graded`), so the socle never asks its ideal for a
Groebner basis to find out.
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
from .poly import Polynomial
from .upoly import qq_irreducible, squarefree_part


class QuotientBasis:
    """Standard monomials of a zero-dimensional ideal together with the
    multiplication matrices of all presentation variables."""

    def __init__(self, ideal: Ideal, order=None):
        order = order or ideal.ring.default_order()
        sm = standard_monomials(ideal, order)
        if sm is None:
            raise NotZeroDimensional(f"quotient by {ideal!r} is not finite-dimensional")
        self._setup(ideal, order, sm, None)
        one = self.ring.field.one()
        self.columns: list[list[dict]] = []
        for i in range(self.ring.npres):
            cols = []
            for b in sm:
                shifted = b[:i] + (b[i] + 1,) + b[i + 1 :]
                if shifted in self.index:
                    cols.append({self.index[shifted]: one})
                else:
                    nf = ideal.normal_form(self.ring.monomial(shifted), order)
                    cols.append({self.index[m]: c for m, c in nf.terms.items()})
            self.columns.append(cols)

    @classmethod
    def from_columns(cls, ideal: Ideal, order, monomials, columns, graded: bool):
        """R/I from its standard monomials (ascending in `order`) and its
        multiplication columns, for a quotient read off another one
        rather than off a Groebner basis of `ideal`."""
        Q = cls.__new__(cls)
        Q._setup(ideal, order, monomials, graded)
        Q.columns = columns
        return Q

    def _setup(self, ideal: Ideal, order, monomials, graded: bool | None) -> None:
        """Everything but the columns, derived from the standard monomials;
        `graded` None means ask the ideal when first needed."""
        self.ideal = ideal
        self.ring = ideal.ring
        self.order = order
        self.monomials: list[tuple] = monomials
        self.index = {m: i for i, m in enumerate(monomials)}
        self.dimension = len(monomials)
        self.degrees = [self.ring.weighted_degree(m) for m in monomials]
        self._graded = graded
        self._one = (0,) * self.ring.npres
        unit = [self.ring.field.zero()] * self.dimension
        if self.dimension:
            unit[self.index[self._one]] = self.ring.field.one()
        self._mono_nf: dict = {self._one: unit}

    @property
    def graded(self) -> bool:
        """Whether the ideal is graded (asked of the ideal at most once)."""
        if self._graded is None:
            self._graded = self.ideal.is_graded()
        return self._graded

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
        """Coordinates of x_i times vec: plain sums of products, reduced
        once per entry over GF(p)."""
        out = [self.ring.field.zero()] * self.dimension
        cols = self.columns[i]
        for j, c in enumerate(vec):
            if c:
                for r, a in cols[j].items():
                    out[r] += a * c
        p = self.ring.field.characteristic
        return [x % p for x in out] if p else out

    def apply_var_transpose(self, i: int, vec: list) -> list:
        """The transpose of `apply_var`: contraction by the i-th variable
        on dual coordinates."""
        zero = self.ring.field.zero()
        out = []
        for col in self.columns[i]:
            acc = zero
            for r, a in col.items():
                c = vec[r]
                if c:
                    acc += a * c
            out.append(acc)
        p = self.ring.field.characteristic
        return [x % p for x in out] if p else out

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

    def action_matrix(self, g: Polynomial) -> list[dict]:
        """Sparse columns (row -> entry) of multiplication by g on the
        quotient, the form of `columns[i]`: g is reduced once, then its
        terms act on each basis vector."""
        field = self.ring.field
        D = self.dimension
        terms = list(self.ideal.normal_form(g, self.order).terms.items())
        if not terms:
            return [{} for _ in range(D)]
        out = []
        for j in range(D):
            unit = [field.zero()] * D
            unit[j] = field.one()
            out.append({r: c for r, c in enumerate(self._apply_terms(terms, unit)) if c})
        return out

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


def _joint_kernel(Q: QuotientBasis, maps: list[list[dict]], graded: bool) -> list[list]:
    """Kernel of the maps on R/I given as sparse columns, stacked into one
    map whose column j sends (i, r) to entry r of column j of map i."""
    columns = [
        {(i, r): a for i, cols in enumerate(maps) for r, a in cols[j].items()}
        for j in range(Q.dimension)
    ]
    return _kernel_by_degree(Q, columns, graded)


def socle(Q: QuotientBasis) -> list[list]:
    """Basis of 0 : (all variables) in R/I; homogeneous by construction
    when the ideal is graded."""
    return _joint_kernel(Q, Q.columns, Q.graded)


def socle_wrt(Q: QuotientBasis, annihilators) -> list[list]:
    """Basis of 0 : (g_1, ..., g_k) in R/I for arbitrary ideal generators;
    a generator inside I acts as zero and adds no rows."""
    return _joint_kernel(Q, [Q.action_matrix(g) for g in annihilators], False)


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
    columns = []
    for j in range(A.dimension):
        e = [field.zero()] * A.dimension
        e[j] = field.one()
        img = A.element_power(e, p)
        img[j] = field.sub(img[j], field.one())
        columns.append({r: c for r, c in enumerate(img) if c})
    return len(_kernel_by_degree(A, columns, False))


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
        sd = len(socle(Q))
    else:
        sd = len(socle_wrt(Q, cert.radical.gens))
    if sd % cert.residue_dimension:
        raise GradixError("internal: socle dimension not divisible by residue degree")
    return sd // cert.residue_dimension


def dehomogenize_units(I: Ideal) -> Ideal:
    """Adjoin v - 1 for every invertible variable."""
    ring = I.ring
    extra = [ring.var(n) - ring.one() for n, inv in zip(ring.names, ring.invertible) if inv]
    return Ideal(ring, list(I.gens) + extra)


def hilbert_function(Q: QuotientBasis) -> list[tuple[int, int]]:
    """Dimensions of the graded pieces of R/I, ascending by degree."""
    if not Q.graded:
        raise NotGraded("Hilbert function needs a graded ideal")
    if not Q.ring.positively_graded:
        raise NotPositivelyGraded("Hilbert function needs positive weights")
    hist: dict[int, int] = {}
    for d in Q.degrees:
        hist[d] = hist.get(d, 0) + 1
    return sorted(hist.items())
