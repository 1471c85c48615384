"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the production code paths: a criteria-free
textbook Buchberger loop, a leading-term-only division loop, and graded
dimension counts by plain rank computations.  Slow and simple on purpose.
"""

from itertools import combinations

from gradix.linalg import kernel_basis, span_of
from gradix.poly import Polynomial, mono_div, mono_divides, mono_lcm


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
        rk = span_of(ring.field, len(monos), rows).dim
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
    linearly dependent, and the dependency from `kernel_basis`."""
    field = Q.ring.field
    powers = []
    for k in range(Q.dimension + 1):
        powers.append(ref_element_power(Q, vec, k, basis))
        rows = [[p[r] for p in powers] for r in range(Q.dimension)]
        kernel = kernel_basis(field, rows, k + 1)
        if kernel:
            (dep,) = kernel
            inv = field.inv(dep[k])
            return [field.mul(c, inv) for c in dep]
    raise AssertionError("powers of an element stayed independent past the dimension")
