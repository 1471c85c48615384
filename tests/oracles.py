"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the production code paths: a criteria-free
textbook Buchberger loop, a leading-term-only division loop, and graded
dimension counts by plain rank computations.  Slow and simple on purpose.
The two exact inner loops of the program keep their former, rescanning
forms here as references: `ref_reduce_full` (complete reduction that
finds each next term by a max scan) and `RefSpan` (dense reduced echelon
form through the field's methods, one call per entry).

Code that the program itself does not need lives here too: polynomial
substitution, and the inverse system in dual polynomials (`DualPoly`,
`contract`, `dual_generators`, `annihilator`) beside the program's R/I
coordinates, with `monomial_split` for monomial ideals and `char_guard`
for the characteristics its identity excludes.  `dense` turns the
program's sparse columns of a map on R/I into the rows the references
compare against.
"""

from itertools import combinations, product

from gradix.artin import QuotientBasis, certified_power_bound, socle
from gradix.errors import CharacteristicForbidden, GradixError, RingMismatch, ScopeError
from gradix.groebner import Ideal, ideal_equal, intersect
from gradix.linalg import kernel_basis, matvec
from gradix.poly import Polynomial, mono_div, mono_divides, mono_lcm, mono_mul


def ref_reduce_full(terms, prepared, order, field):
    """Complete reduction of a term dict by a list of (leading monomial,
    1/lc, tail items) reducers: the largest remaining term, found by a max
    scan over the work dict, is reduced by the first reducer whose leading
    monomial divides it."""
    result = {}
    work = dict(terms)
    key = order.key
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        hit = None
        for ltm, inv_lc, tail in prepared:
            if mono_divides(ltm, m):
                hit = (ltm, inv_lc, tail)
                break
        if hit is None:
            result[m] = c
            continue
        ltm, inv_lc, tail = hit
        q = mono_div(m, ltm)
        factor = field.mul(c, inv_lc)
        for tm, tc in tail:
            mm = mono_mul(tm, q)
            sub = field.mul(factor, tc)
            if mm in work:
                val = field.sub(work[mm], sub)
                if field.is_zero(val):
                    del work[mm]
                else:
                    work[mm] = val
            else:
                work[mm] = field.neg(sub)
    return result


class RefSpan:
    """Incrementally maintained row space in reduced echelon form: rows
    keyed by pivot column, each with pivot 1 and reduced against the
    others, every entry through the field's methods."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.rows = {}

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        f = self.field
        v = list(vec)
        for p in sorted(self.rows):
            c = v[p]
            if not f.is_zero(c):
                row = self.rows[p]
                for i in range(p, self.n):
                    v[i] = f.sub(v[i], f.mul(c, row[i]))
        return v

    def contains(self, vec):
        f = self.field
        return all(f.is_zero(c) for c in self.reduce(vec))

    def add(self, vec):
        f = self.field
        v = self.reduce(vec)
        pivot = next((i for i in range(self.n) if not f.is_zero(v[i])), None)
        if pivot is None:
            return False
        inv = f.inv(v[pivot])
        v = [f.mul(c, inv) for c in v]
        for p, row in self.rows.items():
            c = row[pivot]
            if not f.is_zero(c):
                self.rows[p] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, v)]
        self.rows[pivot] = v
        return True

    def copy(self):
        out = RefSpan(self.field, self.n)
        out.rows = dict(self.rows)
        return out

    def membership_rows(self):
        f = self.field
        out = []
        for r in range(self.n):
            if r in self.rows:
                continue
            cond = [f.zero()] * self.n
            cond[r] = f.one()
            for p, row in self.rows.items():
                cond[p] = f.neg(row[r])
            out.append(cond)
        return out

    def key(self):
        return tuple(tuple(self.rows[p]) for p in sorted(self.rows))


def ref_span_of(field, n, vectors):
    s = RefSpan(field, n)
    for v in vectors:
        s.add(v)
    return s


def ref_kernel_basis(field, rows, ncols):
    """Basis of {v : M v = 0}: one vector per free column of the RREF."""
    span = ref_span_of(field, ncols, rows)
    pivots = sorted(span.rows)
    basis = []
    for j in range(ncols):
        if j in span.rows:
            continue
        v = [field.zero()] * ncols
        v[j] = field.one()
        for p in pivots:
            v[p] = field.neg(span.rows[p][j])
        basis.append(v)
    return basis


def naive_nf(f, basis, order):
    """Repeated leading-term reduction; complete (reduces tails too)."""
    ring = f.ring
    field = ring.field
    rest = f
    out = ring.zero()
    while not rest.is_zero():
        m, c = rest.leading(order)
        hit = None
        for g in basis:
            lt, lc = g.leading(order)
            if mono_divides(lt, m):
                hit = (g, lt, lc)
                break
        if hit is None:
            t = Polynomial(ring, {m: c})
            out = out + t
            rest = rest - t
        else:
            g, lt, lc = hit
            rest = rest - g.mono_shift(mono_div(m, lt), field.div(c, lc))
    return out


def naive_spoly(f, g, order):
    field = f.ring.field
    ltf, lcf = f.leading(order)
    ltg, lcg = g.leading(order)
    lcm = mono_lcm(ltf, ltg)
    return f.mono_shift(mono_div(lcm, ltf), field.inv(lcf)) - g.mono_shift(
        mono_div(lcm, ltg), field.inv(lcg)
    )


def naive_groebner(gens, order):
    """All pairs, no criteria, no interreduction: a certified (non-reduced) basis."""
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    pairs = list(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        h = naive_nf(naive_spoly(basis[i], basis[j], order), basis, order)
        if not h.is_zero():
            basis.append(h.monic(order))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def in_ideal_oracle(f, gens, order):
    return naive_nf(f, naive_groebner(gens, order), order).is_zero()


def same_ideal_oracle(gens_a, gens_b, order):
    ga = naive_groebner(gens_a, order)
    gb = naive_groebner(gens_b, order)
    return all(naive_nf(f, gb, order).is_zero() for f in gens_a) and all(
        naive_nf(f, ga, order).is_zero() for f in gens_b
    )


def spoly_certificate(basis, order):
    """Buchberger's criterion, checked literally: every S-poly reduces to 0."""
    for f, g in combinations(basis, 2):
        if not naive_nf(naive_spoly(f, g, order), basis, order).is_zero():
            return False
    return True


def monomials_of_degree(ring, d):
    """All presentation monomials of total degree exactly d."""
    n = ring.npres
    out = []

    def walk(i, remaining, cur):
        if i == n - 1:
            out.append(tuple(cur + [remaining]))
            return
        for e in range(remaining + 1):
            walk(i + 1, remaining - e, cur + [e])

    walk(0, d, [])
    return out


def graded_quotient_dims(gens, ring, max_degree):
    """dim of each graded piece of R/I for an ideal with homogeneous
    generators (standard weights): rank counts of generator multiples."""
    dims = []
    for d in range(max_degree + 1):
        monos = monomials_of_degree(ring, d)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for g in gens:
            gd = g.total_degree()
            if gd is None or gd > d:
                continue
            for m in monomials_of_degree(ring, d - gd):
                prod = g.mono_shift(m, ring.field.one())
                row = [ring.field.zero()] * len(monos)
                for mm, c in prod.terms.items():
                    row[index[mm]] = c
                rows.append(row)
        rk = ref_span_of(ring.field, len(monos), rows).dim
        dims.append(len(monos) - rk)
    return dims


# ---------------------------------------------------------------------------
# quotient-algebra reference: every product is multiplied out as a
# polynomial and reduced by `naive_nf` against a `naive_groebner` basis


def quotient_reference_basis(Q):
    """A (non-reduced) Groebner basis of Q's ideal, independent of `Ideal`."""
    return naive_groebner(list(Q.ideal.basis_gens), Q.order)


def _as_poly(Q, vec):
    field = Q.ring.field
    terms = {m: c for m, c in zip(Q.monomials, vec) if not field.is_zero(c)}
    return Polynomial(Q.ring, terms)


def ref_coords(Q, f, basis):
    """Coordinates over Q's standard monomials of the normal form of f."""
    vec = [Q.ring.field.zero()] * Q.dimension
    for m, c in naive_nf(f, basis, Q.order).terms.items():
        vec[Q.index[m]] = c
    return vec


def ref_action_matrix(Q, g, basis):
    """Rows of multiplication by g: column j is NF(g * b_j)."""
    cols = [ref_coords(Q, g * Q.ring.monomial(b), basis) for b in Q.monomials]
    return [[col[r] for col in cols] for r in range(Q.dimension)]


def dense(columns, n):
    """Rows of the n x n matrix with the given sparse columns (row -> entry),
    the form of `QuotientBasis.columns[i]` and `QuotientBasis.action_matrix`."""
    return [[col.get(r, 0) for col in columns] for r in range(n)]


def ref_multiply(Q, u, v, basis):
    return ref_coords(Q, _as_poly(Q, u) * _as_poly(Q, v), basis)


def ref_element_power(Q, vec, e, basis):
    """vec^e by e successive products (no square-and-multiply)."""
    out = ref_coords(Q, Q.ring.one(), basis)
    for _ in range(e):
        out = ref_multiply(Q, out, vec, basis)
    return out


def ref_minimal_polynomial(Q, vec, basis):
    """Monic minimal polynomial (ascending coefficients) of vec: the first
    k at which 1, vec, ..., vec^k (each from `ref_element_power`) are
    linearly dependent, and the dependency from `ref_kernel_basis`."""
    field = Q.ring.field
    powers = []
    for k in range(Q.dimension + 1):
        powers.append(ref_element_power(Q, vec, k, basis))
        rows = [[p[r] for p in powers] for r in range(Q.dimension)]
        kernel = ref_kernel_basis(field, rows, k + 1)
        if kernel:
            (dep,) = kernel
            inv = field.inv(dep[k])
            return [field.mul(c, inv) for c in dep]
    raise AssertionError("powers of an element stayed independent past the dimension")


def ref_squarefree_part(f, field):
    """Radical of f, monic, by the loop that strips the factors of
    v = f / gcd(f, f') from gcd(f, f') one multiplicity at a time
    (quadratic in the multiplicity)."""
    from gradix.upoly import derivative, divmod_poly, gcd_poly, monic, mul

    f = monic(f, field)
    if len(f) == 1:
        return [field.one()]
    d = derivative(f, field)
    p = field.characteristic
    if not d:
        return ref_squarefree_part([f[i] for i in range(0, len(f), p)], field)
    u = gcd_poly(f, d, field)
    if len(u) == 1:
        return f
    v = divmod_poly(f, u, field)[0]
    if p == 0:
        return monic(v, field)
    w = u
    g = gcd_poly(w, v, field)
    while len(g) > 1:
        w = divmod_poly(w, g, field)[0]
        g = gcd_poly(w, v, field)
    return monic(mul(v, ref_squarefree_part(w, field), field), field)


# ---------------------------------------------------------------------------
# lattice reference: every reduced row echelon form over GF(p), kept when
# it is closed under the variable matrices


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count_estimate(n, q):
    """Number of subspaces of GF(q)^n: the work of `ref_ideal_keys`."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def _all_rref(field, n):
    """Every reduced row echelon form over the field, by dimension then
    lexicographic pattern."""
    values = list(range(field.characteristic))
    yield ()
    for k in range(1, n + 1):
        for pivots in combinations(range(n), k):
            free_cells = []
            for i, p in enumerate(pivots):
                for c in range(p + 1, n):
                    if c not in pivots:
                        free_cells.append((i, c))
            for fill in product(values, repeat=len(free_cells)):
                rows = [[field.zero()] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = field.one()
                for (i, c), v in zip(free_cells, fill):
                    rows[i][c] = field.from_int(v)
                yield tuple(tuple(r) for r in rows)


def ref_ideal_keys(A):
    """(member keys, graded member keys) of a FiniteAlgebra over GF(p), in
    the order of `_all_rref`: every subspace is tested for closure under
    the dense matrices of the variables, and a member is graded when every
    degree component of every basis row lies in it."""
    Q = A.quotient
    field = Q.ring.field
    n = Q.dimension
    matrices = [dense(Q.action_matrix(Q.ring.var(name)), n) for name in Q.ring.pres_names]
    members = []
    graded = []
    degree_set = sorted(set(Q.degrees))
    masks = {d: [i for i, dd in enumerate(Q.degrees) if dd == d] for d in degree_set}
    for key in _all_rref(field, n):
        span = ref_span_of(field, n, [list(row) for row in key])
        closed = all(
            span.contains(matvec(field, M, row)) for row in key for M in matrices
        )
        if not closed:
            continue
        members.append(key)
        homogeneous = True
        for row in key:
            for d in degree_set:
                comp = [field.zero()] * n
                for i in masks[d]:
                    comp[i] = row[i]
                if not span.contains(comp):
                    homogeneous = False
                    break
            if not homogeneous:
                break
        if homogeneous:
            graded.append(key)
    return members, graded


# ---------------------------------------------------------------------------
# polynomial substitution: the image of f under a ring map, multiplied out


def substitute(f, assignment):
    """Image of f under the ring map sending each variable to a polynomial.

    `assignment` maps every variable name of f's ring to a Polynomial over
    one common target ring with the same coefficient field.  Rings with
    invertible variables are not supported as substitution sources.
    """
    ring = f.ring
    if ring.has_laurent:
        raise GradixError("substitution out of a Laurent ring is not supported")
    if not f.terms:
        targets = list(assignment.values())
        if not targets:
            raise GradixError("empty assignment for substitution of zero")
        return targets[0].ring.zero()
    missing = [n for n in ring.names if n not in assignment]
    if missing:
        raise GradixError(f"assignment misses variables {missing}")
    target = next(iter(assignment.values())).ring
    if target.field != ring.field:
        raise RingMismatch("substitution must preserve the coefficient field")
    images = [assignment[n] for n in ring.names]
    out = target.zero()
    for m, c in f.terms.items():
        term = target.constant(c)
        for e, img in zip(m, images):
            if e:
                term = term * img**e
        out = out + term
    return out


# ---------------------------------------------------------------------------
# inverse-system reference: dual generators as polynomials in the dual
# variables, contraction, and annihilators by a kernel over all monomials
# up to the top degree; `gradix.invsys` works in R/I coordinates only


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


def contract(g, F):
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


def _dual_poly_from_coords(Q, coords, bound):
    """F = sum over monomials m of <NF(m), coords> X^m, cut off at the
    certified power bound."""
    field = Q.ring.field
    terms: dict = {}
    for d in range(bound):
        for m in monomials_of_degree(Q.ring, d):
            v = Q.nf_monomial(m)
            acc = field.zero()
            for a, b in zip(v, coords):
                if not field.is_zero(a) and not field.is_zero(b):
                    acc = field.add(acc, field.mul(a, b))
            if not field.is_zero(acc):
                terms[m] = acc
    return DualPoly(Q.ring, terms)


def dual_generators(inv):
    """The minimal generators of an `InverseSystem` as DualPolys, cut off
    at the certified power bound."""
    Q = inv.certificate.quotient
    bound = certified_power_bound(Q)
    return [_dual_poly_from_coords(Q, c, bound) for c in inv.generator_coords]


def annihilator(F, ring):
    """Ann(F) = {g : g o F = 0}: a (variables)-primary irreducible ideal,
    certified by a socle-dimension-1 post-check."""
    if F.is_zero():
        raise GradixError("annihilator of the zero dual element")
    d = F.degree()
    field = ring.field
    monos = [m for deg in range(d + 1) for m in monomials_of_degree(ring, deg)]
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
    gens.extend(ring.monomial(m) for m in monomials_of_degree(ring, d + 1))
    ideal = Ideal(ring, gens)
    if len(socle(QuotientBasis(ideal))) != 1:
        raise GradixError("internal: annihilator failed the irreducibility certificate")
    return Ideal(ring, list(ideal.groebner_basis()))


# ---------------------------------------------------------------------------
# monomial splitting: I = (I + (m)) cap (I + (m')) at a mixed generator m*m'


class NotMonomial(ScopeError):
    pass


def monomial_split(I):
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


def char_guard(field, forbidden) -> None:
    """Refuse coefficient fields whose characteristic is in `forbidden`."""
    if field.characteristic in set(forbidden):
        raise CharacteristicForbidden(field.characteristic)
