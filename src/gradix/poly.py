"""Monomials, integer-weighted gradings, monomial orders, and exact
multivariate polynomial arithmetic.

A ring may declare some variables invertible (Laurent variables).  Such a
ring is realized by a presentation: each invertible variable v gets a
companion variable with weight -weight(v), and the relation v*v^-1 - 1 is
adjoined to every ideal of the ring (see groebner.Ideal).  Monomials are
exponent tuples over the presentation variable list; all orders and all
polynomial arithmetic live there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import GradixError, RingMismatch


# ---------------------------------------------------------------------------
# monomials: plain exponent tuples


def mono_mul(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def mono_divides(u: tuple, v: tuple) -> bool:
    """True if u divides v componentwise."""
    return all(a <= b for a, b in zip(u, v))


def mono_div(u: tuple, v: tuple) -> tuple:
    """u / v; caller guarantees divisibility."""
    return tuple(a - b for a, b in zip(u, v))


def mono_lcm(u: tuple, v: tuple) -> tuple:
    return tuple(max(a, b) for a, b in zip(u, v))


def mono_coprime(u: tuple, v: tuple) -> bool:
    return all(a == 0 or b == 0 for a, b in zip(u, v))


# ---------------------------------------------------------------------------
# monomial orders
#
# `key(m)` sorts ascending in the order.  `desc_key(m)` is a flat tuple of
# ints that sorts descending (every component of `key` negated), so a
# min-heap of desc keys pops the largest monomial first.


class GrevLex:
    """Graded reverse lexicographic: total degree first, then the last
    nonzero exponent difference decides (smaller wins)."""

    name = "grevlex"

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.cache_key = ("grevlex",)

    def key(self, m: tuple):
        return (sum(m), tuple(-e for e in reversed(m)))

    def desc_key(self, m: tuple):
        return (-sum(m), *reversed(m))


class Lex:
    name = "lex"

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.cache_key = ("lex",)

    def key(self, m: tuple):
        return m

    def desc_key(self, m: tuple):
        return tuple(-e for e in m)


class BlockElim:
    """Elimination order: grevlex on the leading block, grevlex on the rest.

    Any monomial involving a block variable beats any monomial that does
    not, so a Groebner basis w.r.t. this order intersects down to the
    subring in the remaining variables.
    """

    name = "block"

    def __init__(self, nvars: int, block: tuple[int, ...]):
        self.nvars = nvars
        self.block = tuple(sorted(block))
        rest = tuple(i for i in range(nvars) if i not in set(self.block))
        self._rest = rest
        self._block_desc = self.block[::-1]
        self._rest_desc = rest[::-1]
        self.cache_key = ("block", self.block)

    def key(self, m: tuple):
        head = tuple(m[i] for i in self.block)
        tail = tuple(m[i] for i in self._rest)
        return (
            (sum(head), tuple(-e for e in reversed(head))),
            (sum(tail), tuple(-e for e in reversed(tail))),
        )

    def desc_key(self, m: tuple):
        head = [m[i] for i in self._block_desc]
        tail = [m[i] for i in self._rest_desc]
        return (-sum(head), *head, -sum(tail), *tail)


# ---------------------------------------------------------------------------
# rings


@dataclass(frozen=True)
class RingSpec:
    """A (Laurent) polynomial ring over an exact field with a Z-grading.

    `names`, `weights`, `invertible` describe the declared variables; the
    presentation adds one inverse companion per invertible variable.
    """

    field: object
    names: tuple[str, ...]
    weights: tuple[int, ...]
    invertible: tuple[bool, ...]

    @staticmethod
    def make(field, names, weights=None, invertible=None) -> "RingSpec":
        names = tuple(names)
        if len(set(names)) != len(names):
            raise GradixError(f"duplicate variable names in {names}")
        if weights is None:
            weights = (1,) * len(names)
        weights = tuple(int(w) for w in weights)
        if len(weights) != len(names):
            raise GradixError("weight vector length must match variable count")
        if invertible is None:
            invertible = (False,) * len(names)
        invertible = tuple(bool(b) for b in invertible)
        return RingSpec(field, names, weights, invertible)

    @cached_property
    def pres_names(self) -> tuple[str, ...]:
        extra = tuple(n + "^-1" for n, inv in zip(self.names, self.invertible) if inv)
        return self.names + extra

    @cached_property
    def pres_weights(self) -> tuple[int, ...]:
        extra = tuple(-w for w, inv in zip(self.weights, self.invertible) if inv)
        return self.weights + extra

    @cached_property
    def npres(self) -> int:
        return len(self.pres_names)

    @cached_property
    def companion_of(self) -> dict:
        """Map user variable index -> presentation index of its inverse."""
        out = {}
        j = len(self.names)
        for i, inv in enumerate(self.invertible):
            if inv:
                out[i] = j
                j += 1
        return out

    @cached_property
    def has_laurent(self) -> bool:
        return any(self.invertible)

    @cached_property
    def positively_graded(self) -> bool:
        return all(w > 0 for w in self.pres_weights)

    def index_of(self, name: str) -> int:
        try:
            return self.pres_names.index(name)
        except ValueError:
            raise GradixError(f"unknown variable {name!r} in ring {self}") from None

    def weighted_degree(self, m: tuple) -> int:
        return sum(w * e for w, e in zip(self.pres_weights, m))

    def default_order(self):
        return GrevLex(self.npres)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.npres: self.field.one()})

    def constant(self, c) -> "Polynomial":
        c = self.field.validate(c)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {(0,) * self.npres: c})

    def var(self, name: str) -> "Polynomial":
        i = self.index_of(name)
        e = [0] * self.npres
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one()})

    def monomial(self, exps: tuple, coeff=None) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.npres or any(e < 0 for e in exps):
            raise GradixError(f"bad exponent vector {exps} for ring {self}")
        c = self.field.one() if coeff is None else self.field.validate(coeff)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {exps: c})

    def relations(self) -> list:
        """v * v^-1 - 1 for each invertible variable."""
        out = []
        for i, j in self.companion_of.items():
            e = [0] * self.npres
            e[i] = 1
            e[j] = 1
            out.append(
                Polynomial(
                    self,
                    {
                        tuple(e): self.field.one(),
                        (0,) * self.npres: self.field.neg(self.field.one()),
                    },
                )
            )
        return out

    def __str__(self):
        vs = []
        for n, inv in zip(self.names, self.invertible):
            vs.append(n)
            if inv:
                vs.append(n + "^-1")
        w = ",".join(str(x) for x in self.weights)
        return f"{self.field}[{','.join(vs)}] weights({w})"


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable polynomial: a map from exponent tuple to nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: dict, _normalized: bool = False):
        self.ring = ring
        if _normalized:
            self.terms = terms
        else:
            fz = ring.field.is_zero
            self.terms = {m: c for m, c in terms.items() if not fz(c)}

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch(f"operands over {self.ring} and {other.ring}")

    def __add__(self, other):
        self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = f.add(out[m], c)
                if f.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
        return Polynomial(self.ring, out, _normalized=True)

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, {m: f.neg(c) for m, c in self.terms.items()}, _normalized=True)

    def __sub__(self, other):
        self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            if m in out:
                s = f.sub(out[m], c)
                if f.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = f.neg(c)
        return Polynomial(self.ring, out, _normalized=True)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        f = self.ring.field
        out: dict = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = mono_mul(m1, m2)
                c = f.mul(c1, c2)
                if m in out:
                    s = f.add(out[m], c)
                    if f.is_zero(s):
                        del out[m]
                    else:
                        out[m] = s
                else:
                    out[m] = c
        return Polynomial(self.ring, out, _normalized=True)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        f = self.ring.field
        c = f.validate(c)
        if f.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: f.mul(cc, c) for m, cc in self.terms.items()}, _normalized=True)

    def mono_shift(self, m: tuple, c) -> "Polynomial":
        """self * (c * x^m), the workhorse of reduction loops."""
        f = self.ring.field
        return Polynomial(
            self.ring,
            {mono_mul(mm, m): f.mul(cc, c) for mm, cc in self.terms.items()},
            _normalized=True,
        )

    def __pow__(self, n: int):
        if n < 0:
            raise GradixError("negative polynomial power")
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------------

    def sorted_terms(self, order=None) -> list:
        order = order or self.ring.default_order()
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def leading(self, order=None) -> tuple:
        """(monomial, coefficient) of the leading term."""
        if not self.terms:
            raise GradixError("zero polynomial has no leading term")
        order = order or self.ring.default_order()
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def monic(self, order=None) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading(order)
        return self.scale(self.ring.field.inv(c))

    def total_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def __repr__(self):
        from .gxparser import render

        return f"<{render(self)}>"


# ---------------------------------------------------------------------------
# grading utilities


def is_homogeneous(f: Polynomial) -> bool:
    """Zero counts as homogeneous of every degree."""
    ring = f.ring
    it = iter(f.terms)
    try:
        d0 = ring.weighted_degree(next(it))
    except StopIteration:
        return True
    return all(ring.weighted_degree(m) == d0 for m in it)


def map_to_ring(f: Polynomial, target: RingSpec, rename: dict | None = None) -> Polynomial:
    """Reinterpret f in `target`, matching presentation variables by name.

    `rename` maps source presentation names to target presentation names.
    Raises if a variable with a nonzero exponent has no image.
    """
    rename = rename or {}
    src = f.ring
    if target.field != src.field:
        raise RingMismatch("target ring has a different coefficient field")
    idx = []
    for name in src.pres_names:
        name = rename.get(name, name)
        idx.append(target.pres_names.index(name) if name in target.pres_names else None)
    out: dict = {}
    for m, c in f.terms.items():
        e = [0] * target.npres
        for i, exp in enumerate(m):
            if exp == 0:
                continue
            if idx[i] is None:
                raise GradixError(
                    f"variable {src.pres_names[i]!r} has no image in target ring"
                )
            e[idx[i]] = exp
        out[tuple(e)] = c
    return Polynomial(target, out)
