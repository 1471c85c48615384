"""Buchberger engine and the ideal-operation algebra built on it:
normal forms, membership, equality, intersection, colon ideals,
saturation, elimination, and standard monomials.

Pair management follows the classical update procedure (coprime-lcm and
chain criteria applied on insertion), with the normal selection strategy
(smallest lcm first) and deterministic index tie-breaks, so output bases
are reproducible across runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from .errors import GradixError, RingMismatch
from .poly import (
    BlockElim,
    Polynomial,
    RingSpec,
    is_homogeneous,
    map_to_ring,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


def _clear_content(f: Polynomial) -> Polynomial:
    """Scale to integer coefficients with content 1 (QQ only); keeps growth down."""
    if not f.terms:
        return f
    if not isinstance(next(iter(f.terms.values())), Fraction):
        return f
    den = 1
    for c in f.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in f.terms.values():
        num = gcd(num, abs(c.numerator * (den // c.denominator)))
    if num == 0:
        return f
    scale = Fraction(den, num)
    return f.scale(scale)


def _prepare(basis, order):
    """Precompute (leading monomial, 1/lc, tail items) for a reducer list."""
    field = basis[0].ring.field if basis else None
    out = []
    for g in basis:
        lt, lc = g.leading(order)
        tail = [(m, c) for m, c in g.terms.items() if m != lt]
        out.append((lt, field.inv(lc), tail))
    return out


def _reduce_full(terms: dict, prepared, order, field) -> dict:
    """Complete reduction: no term of the result is divisible by any reducer LT."""
    result: dict = {}
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
        # every mm below is strictly smaller than m, hence never already in result
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


def _spoly_terms(f: Polynomial, g: Polynomial, order, field) -> dict:
    ltf, lcf = f.leading(order)
    ltg, lcg = g.leading(order)
    lcm = mono_lcm(ltf, ltg)
    a = f.mono_shift(mono_div(lcm, ltf), field.inv(lcf))
    b = g.mono_shift(mono_div(lcm, ltg), field.inv(lcg))
    return (a - b).terms


def _update(G: list, B: list, ih: int, lts: list):
    """Becker-Weispfenning pair update: applies the coprime-product and
    chain criteria while inserting generator `ih`."""
    mh = lts[ih]
    C = list(G)
    D: list = []
    while C:
        ig = C.pop()
        lcm_hg = mono_lcm(mh, lts[ig])

        def lcm_divides(ip):
            return mono_divides(mono_lcm(mh, lts[ip]), lcm_hg)

        if mono_coprime(mh, lts[ig]) or (
            not any(lcm_divides(ip) for ip in C)
            and not any(lcm_divides(pr[1]) for pr in D)
        ):
            D.append((ih, ig))
    E = [(i, j) for (i, j) in D if not mono_coprime(mh, lts[j])]
    B_new = []
    for i1, i2 in B:
        lcm12 = mono_lcm(lts[i1], lts[i2])
        if (
            not mono_divides(mh, lcm12)
            or mono_lcm(lts[i1], mh) == lcm12
            or mono_lcm(lts[i2], mh) == lcm12
        ):
            B_new.append((i1, i2))
    B_new.extend(E)
    G_new = [ig for ig in G if not mono_divides(mh, lts[ig])]
    G_new.append(ih)
    return G_new, B_new


def buchberger(gens, order, ring: RingSpec) -> list[Polynomial]:
    """Reduced Groebner basis, deterministic, sorted by ascending leading
    monomial.  The zero ideal yields the empty list."""
    field = ring.field
    polys: list[Polynomial] = []
    lts: list[tuple] = []
    G: list[int] = []
    B: list[tuple] = []

    def insert(h_terms: dict):
        nonlocal G, B
        h = _clear_content(Polynomial(ring, h_terms, _normalized=True))
        polys.append(h)
        lts.append(h.leading(order)[0])
        G, B = _update(G, B, len(polys) - 1, lts)

    for g in gens:
        if g.is_zero():
            continue
        prepared = _prepare([polys[i] for i in G], order)
        h = _reduce_full(g.terms, prepared, order, field)
        if h:
            insert(h)

    while B:
        key = order.key
        i, j = min(B, key=lambda pr: (key(mono_lcm(lts[pr[0]], lts[pr[1]])), pr))
        B.remove((i, j))
        s = _spoly_terms(polys[i], polys[j], order, field)
        if not s:
            continue
        prepared = _prepare([polys[g] for g in G], order)
        h = _reduce_full(s, prepared, order, field)
        if h:
            insert(h)

    # minimalize: drop members whose LT is divisible by another survivor
    final = sorted(G, key=lambda i: order.key(lts[i]))
    minimal: list[int] = []
    for i in final:
        if not any(mono_divides(lts[j], lts[i]) for j in minimal):
            minimal.append(i)
    # tail-reduce each against the others, then make monic
    reduced: list[Polynomial] = []
    for pos, i in enumerate(minimal):
        others = [polys[j] for j in minimal if j != i]
        if others:
            prepared = _prepare(others, order)
            terms = _reduce_full(polys[i].terms, prepared, order, field)
        else:
            terms = polys[i].terms
        reduced.append(Polynomial(ring, terms, _normalized=True).monic(order))
    reduced.sort(key=lambda p: order.key(p.leading(order)[0]))
    return reduced


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """An ideal given by generators, with cached reduced Groebner bases.

    In a ring with invertible variables the defining relations v*v^-1 - 1
    are adjoined automatically, so `gens` is the user-facing list while
    computations use `basis_gens`.  The basis cache is write-once per
    monomial order; concurrent first requests must be serialized by the
    caller (CPython's GIL suffices for the uses in this package).
    """

    def __init__(self, ring: RingSpec, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        for g in self.gens:
            if g.ring != ring:
                raise RingMismatch("generator over a different ring")
        self.basis_gens = self.gens + tuple(ring.relations())
        self._gb: dict = {}
        self._prepared: dict = {}

    # -- basics --------------------------------------------------------------

    def groebner_basis(self, order=None) -> tuple:
        order = order or self.ring.default_order()
        ck = order.cache_key
        if ck not in self._gb:
            basis = tuple(buchberger(self.basis_gens, order, self.ring))
            prepared = _prepare(basis, order) if basis else []
            # mutual-membership guard: the inputs must reduce to zero
            for g in self.basis_gens:
                if _reduce_full(g.terms, prepared, order, self.ring.field):
                    raise GradixError("internal: generator fails to reduce against its basis")
            self._gb[ck] = basis
            self._prepared[ck] = prepared
        return self._gb[ck]

    def normal_form(self, f: Polynomial, order=None) -> Polynomial:
        order = order or self.ring.default_order()
        if f.ring != self.ring:
            raise RingMismatch("polynomial over a different ring")
        self.groebner_basis(order)
        terms = _reduce_full(f.terms, self._prepared[order.cache_key], order, self.ring.field)
        return Polynomial(self.ring, terms, _normalized=True)

    def contains(self, f: Polynomial, order=None) -> bool:
        return self.normal_form(f, order).is_zero()

    def equals(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise RingMismatch("ideals over different rings")
        return self.groebner_basis() == other.groebner_basis()

    def is_zero(self) -> bool:
        return not self.groebner_basis()

    def is_graded(self) -> bool:
        """Graded iff the reduced basis is weighted-homogeneous."""
        return all(is_homogeneous(g) for g in self.groebner_basis())

    def __add__(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatch("ideals over different rings")
        return Ideal(self.ring, self.gens + other.gens)

    def product(self, other: "Ideal") -> "Ideal":
        if self.ring != other.ring:
            raise RingMismatch("ideals over different rings")
        gens = [a * b for a in self.gens for b in other.gens]
        return Ideal(self.ring, gens)

    def __repr__(self):
        from .gxparser import render

        return f"Ideal({render(self)})"


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    return I.equals(J)


# ---------------------------------------------------------------------------
# ring extension helpers


def _fresh_name(ring: RingSpec, base: str) -> str:
    name = base
    while name in ring.pres_names:
        name += "_"
    return name


def _extended_ring(ring: RingSpec, extra_names, extra_weights=None) -> RingSpec:
    extra_names = list(extra_names)
    if extra_weights is None:
        extra_weights = [1] * len(extra_names)
    return RingSpec.make(
        ring.field,
        tuple(extra_names) + ring.names,
        tuple(extra_weights) + ring.weights,
        (False,) * len(extra_names) + ring.invertible,
    )


def eliminate(I: Ideal, names, target_ring: RingSpec | None = None) -> Ideal:
    """I intersected with the subring omitting `names` (companions of
    invertible variables are eliminated along with them)."""
    ring = I.ring
    idxs: set[int] = set()
    for nm in names:
        i = ring.index_of(nm)
        idxs.add(i)
        if i < len(ring.names) and ring.invertible[i]:
            idxs.add(ring.companion_of[i])
    if not idxs:
        return I
    order = BlockElim(ring.npres, tuple(sorted(idxs)))
    gb = I.groebner_basis(order)
    kept = [g for g in gb if all(all(m[i] == 0 for i in idxs) for m in g.terms)]
    if target_ring is None:
        sel = [i for i in range(len(ring.names)) if i not in idxs]
        target_ring = RingSpec.make(
            ring.field,
            tuple(ring.names[i] for i in sel),
            tuple(ring.weights[i] for i in sel),
            tuple(ring.invertible[i] for i in sel),
        )
    return Ideal(target_ring, [map_to_ring(g, target_ring) for g in kept])


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I cap J via tag-variable elimination of u from u*I + (1-u)*J."""
    if I.ring != J.ring:
        raise RingMismatch("ideals over different rings")
    ring = I.ring
    u_name = _fresh_name(ring, "u")
    ext = _extended_ring(ring, [u_name])
    u = ext.var(u_name)
    one = ext.one()
    gens = [u * map_to_ring(g, ext) for g in I.basis_gens]
    gens += [(one - u) * map_to_ring(g, ext) for g in J.basis_gens]
    return eliminate(Ideal(ext, gens), [u_name], target_ring=ring)


def intersect_many(ideals) -> Ideal:
    ideals = list(ideals)
    if not ideals:
        raise GradixError("empty intersection")
    acc = ideals[0]
    for J in ideals[1:]:
        acc = intersect(acc, J)
    return acc


def divide_exact(g: Polynomial, f: Polynomial) -> Polynomial:
    """g / f when f divides g exactly; raises otherwise."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = g.ring
    order = ring.default_order()
    field = ring.field
    ltf, lcf = f.leading(order)
    inv = field.inv(lcf)
    q: dict = {}
    rest = g
    while not rest.is_zero():
        m, c = rest.leading(order)
        if not mono_divides(ltf, m):
            raise GradixError("inexact polynomial division")
        qm = mono_div(m, ltf)
        qc = field.mul(c, inv)
        q[qm] = qc
        rest = rest - f.mono_shift(qm, qc)
    return Polynomial(ring, q)


def quotient(I: Ideal, f: Polynomial) -> Ideal:
    """The colon ideal (I : f) = {g : g*f in I}, via (I cap (f))/f.

    In a Laurent presentation the computation happens in the plain
    polynomial shadow ring: the defining relations already sit among the
    generators of I, while the principal ideal (f) must stay honest
    (adjoining relations to it would break exact divisibility).
    """
    if f.is_zero():
        raise GradixError("colon by the zero polynomial")
    ring = I.ring
    if ring.has_laurent:
        shadow = RingSpec.make(ring.field, ring.pres_names, ring.pres_weights)
        Ish = Ideal(shadow, [map_to_ring(g, shadow) for g in I.basis_gens])
        out = quotient(Ish, map_to_ring(f, shadow))
        return Ideal(ring, [map_to_ring(g, ring) for g in out.gens])
    inter = intersect(I, Ideal(ring, [f]))
    gens = [divide_exact(g, f) for g in inter.groebner_basis()]
    return Ideal(ring, gens)


def saturate(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f^infinity) by inverse adjunction: eliminate u from I + (u*f - 1)."""
    if f.is_zero():
        raise GradixError("saturation by the zero polynomial")
    ring = I.ring
    u_name = _fresh_name(ring, "u")
    ext = _extended_ring(ring, [u_name])
    u = ext.var(u_name)
    gens = [map_to_ring(g, ext) for g in I.basis_gens]
    gens.append(u * map_to_ring(f, ext) - ext.one())
    return eliminate(Ideal(ext, gens), [u_name], target_ring=ring)


# ---------------------------------------------------------------------------
# standard monomials


def leading_term_exponents(I: Ideal, order=None) -> list[tuple]:
    order = order or I.ring.default_order()
    return [g.leading(order)[0] for g in I.groebner_basis(order)]


def standard_monomials(I: Ideal, order=None):
    """Monomials outside the leading-term ideal, ascending in the order;
    returns None when the quotient is not finite-dimensional (detected by
    a presentation variable with no pure power among the leading terms)."""
    ring = I.ring
    order = order or ring.default_order()
    lts = leading_term_exponents(I, order)
    if any(sum(m) == 0 for m in lts):
        return []  # unit ideal
    n = ring.npres
    bounds = [None] * n
    for m in lts:
        nz = [i for i, e in enumerate(m) if e]
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or m[i] < bounds[i]:
                bounds[i] = m[i]
    if any(b is None for b in bounds):
        return None
    result = [
        m
        for m in product(*(range(b) for b in bounds))
        if not any(mono_divides(lt, m) for lt in lts)
    ]
    result.sort(key=order.key)
    return result
