"""Univariate polynomial utilities over the coefficient fields.

Polynomials are coefficient lists in ascending degree with no trailing
zeros.  Provides exact gcd/squarefree machinery valid in characteristic 0
and over prime fields (including the p-th power contraction case), plus a
complete irreducibility decision for rational polynomials: distinct-degree
patterns modulo several primes as a certificate, with Hensel lifting and
factor recombination as the deciding fallback.
"""

from __future__ import annotations

from math import gcd as int_gcd
from math import isqrt

from .errors import GradixError
from .fields import PrimeField, is_prime


def trim(cs, field):
    while cs and field.is_zero(cs[-1]):
        cs.pop()
    return cs


def degree(cs) -> int:
    return len(cs) - 1  # -1 for the zero polynomial


def sub(a, b, field):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero()
        y = b[i] if i < len(b) else field.zero()
        out.append(field.sub(x, y))
    return trim(out, field)


def scale(a, c, field):
    if field.is_zero(c):
        return []
    return [field.mul(x, c) for x in a]


def mul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if field.is_zero(x):
            continue
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return trim(out, field)


def divmod_poly(a, b, field):
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    r = list(a)
    q = [field.zero()] * max(0, len(a) - len(b) + 1)
    inv = field.inv(b[-1])
    while len(r) >= len(b):
        c = field.mul(r[-1], inv)
        d = len(r) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            r[i + d] = field.sub(r[i + d], field.mul(c, y))
        trim(r, field)
        if not r:
            break
    return trim(q, field), r


def monic(a, field):
    if not a:
        return a
    inv = field.inv(a[-1])
    return [field.mul(c, inv) for c in a]


def gcd_poly(a, b, field):
    a, b = list(a), list(b)
    while b:
        a, b = b, divmod_poly(a, b, field)[1]
    return monic(a, field)


def xgcd_poly(a, b, field):
    """(s, t, g) with s*a + t*b = g, g the monic gcd."""
    r0, r1 = list(a), list(b)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        q, r = divmod_poly(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1, field), field)
        t0, t1 = t1, sub(t0, mul(q, t1, field), field)
    inv = field.inv(r0[-1])
    return scale(s0, inv, field), scale(t0, inv, field), monic(r0, field)


def derivative(a, field):
    out = [field.mul(c, field.from_int(i)) for i, c in enumerate(a) if i > 0]
    return trim(out, field)


def squarefree_part(f, field):
    """Radical of f, monic; exact over QQ and over any prime field."""
    if not f:
        raise GradixError("squarefree part of zero")
    f = monic(f, field)
    if len(f) == 1:
        return [field.one()]
    d = derivative(f, field)
    p = field.characteristic
    if not d:
        # derivative vanished: f = g(x^p) = g(x)^p over GF(p)
        g = [f[i] for i in range(0, len(f), p)]
        return squarefree_part(g, field)
    u = gcd_poly(f, d, field)
    if len(u) == 1:
        return f
    v = divmod_poly(f, u, field)[0]
    if p == 0:
        return monic(v, field)
    # v carries the factors with multiplicity prime to p; strip them from u,
    # what remains (w) is a p-th power handled by recursion.  Every factor of
    # v still in w divides the last part h taken out, so gcd(w, h^2) takes
    # out the next part, up to twice as deep: low multiplicities need a gcd
    # or two, t^3000 a dozen, not one round per multiplicity.
    h = gcd_poly(u, v, field)
    w = divmod_poly(u, h, field)[0]
    while len(w) > 1:
        h = gcd_poly(w, mul(h, h, field), field)
        if len(h) == 1:
            break
        w = divmod_poly(w, h, field)[0]
    return monic(mul(v, squarefree_part(w, field), field), field)


# ---------------------------------------------------------------------------
# GF(p) factorization (used by the rational irreducibility decision)


def _mod_poly(a: list[int], m: int) -> list[int]:
    out = [c % m for c in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def _powmod_poly(base, e: int, modpoly, field):
    result = [field.one()]
    b = divmod_poly(base, modpoly, field)[1]
    while e:
        if e & 1:
            result = divmod_poly(mul(result, b, field), modpoly, field)[1]
        b = divmod_poly(mul(b, b, field), modpoly, field)[1]
        e >>= 1
    return result


def _distinct_degree(fp, F):
    """Distinct-degree factorization of a monic squarefree fp over F = GF(p):
    yields (d, the monic product of the degree-d irreducible factors of fp)
    for each d that occurs, in increasing order."""
    h = [0, 1]  # x^(p^d) mod rest
    d = 0
    rest = fp
    while len(rest) > 1:
        d += 1
        if 2 * d > degree(rest):
            yield degree(rest), rest  # what is left is irreducible
            return
        h = _powmod_poly(h, F.characteristic, rest, F)
        g = gcd_poly(sub(h, [0, 1], F), rest, F)
        if len(g) > 1:
            yield d, g
            rest = divmod_poly(rest, g, F)[0]
            h = divmod_poly(h, rest, F)[1]


def ddf_degree_pattern(f: list[int], p: int) -> list[int] | None:
    """Multiset of irreducible factor degrees of f mod p, or None when the
    reduction drops degree or is not squarefree."""
    F = PrimeField(p)
    fp = _mod_poly(f, p)
    if len(fp) != len(f):
        return None
    fp = monic(fp, F)
    if len(gcd_poly(fp, derivative(fp, F), F)) > 1:
        return None
    pattern: list[int] = []
    for d, g in _distinct_degree(fp, F):
        pattern.extend([d] * (degree(g) // d))
    return sorted(pattern)


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus splitting of a product of degree-d irreducibles (p odd)."""
    F = PrimeField(p)
    n = degree(f)
    if n == d:
        return [f]
    while True:
        a = trim([rng.randrange(p) for _ in range(n)] + [1], F)
        g = gcd_poly(a, f, F)
        if 1 < len(g) < len(f):
            break
        b = _powmod_poly(a, (p**d - 1) // 2, f, F)
        b = sub(b, [1], F)
        if not b:
            continue
        g = gcd_poly(b, f, F)
        if 1 < len(g) < len(f):
            break
    h = divmod_poly(f, g, F)[0]
    return _equal_degree_split(monic(g, F), d, p, rng) + _equal_degree_split(
        monic(h, F), d, p, rng
    )


def factor_mod_p(f: list[int], p: int, rng) -> list[list[int]]:
    """Irreducible factors mod p of a monic squarefree reduction."""
    F = PrimeField(p)
    fp = monic(_mod_poly(f, p), F)
    factors: list[list[int]] = []
    for d, g in _distinct_degree(fp, F):
        factors.extend(_equal_degree_split(g, d, p, rng))
    return factors


# ---------------------------------------------------------------------------
# integer polynomial arithmetic mod M (Hensel lifting)


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim_int(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _mulm(a, b, M):
    return _trim_int([c % M for c in _int_mul(a, b)])


def _subm(a, b, M):
    n = max(len(a), len(b))
    return _trim_int(
        [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % M for i in range(n)]
    )


def _divmod_monic_m(a, b, M):
    """Division by a monic polynomial with coefficients mod M."""
    r = [c % M for c in a]
    q = [0] * max(0, len(r) - len(b) + 1)
    r = _trim_int(r)
    while len(r) >= len(b):
        c = r[-1] % M
        d = len(r) - len(b)
        q[d] = (q[d] + c) % M
        for i, y in enumerate(b):
            r[i + d] = (r[i + d] - c * y) % M
        r = _trim_int(r)
    return _trim_int(q), r


def _addm(a, b, M):
    n = max(len(a), len(b))
    return _trim_int(
        [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % M for i in range(n)]
    )


def _hensel_step(f, g, h, s, t, m):
    """One quadratic Hensel step: from f = g*h and s*g + t*h = 1 (mod m,
    h monic) to the same identities mod m*m, h kept monic."""
    M = m * m
    e = _subm(f, _int_mul(g, h), M)
    q, r = _divmod_monic_m(_int_mul(s, e), h, M)
    g1 = _addm(g, _addm(_int_mul(t, e), _int_mul(q, g), M), M)
    h1 = _addm(h, r, M)
    b = _subm(_addm(_int_mul(s, g1), _int_mul(t, h1), M), [1], M)
    c, d = _divmod_monic_m(_int_mul(s, b), h1, M)
    s1 = _subm(s, d, M)
    t1 = _subm(t, _addm(_int_mul(t, b), _int_mul(c, g1), M), M)
    return g1, h1, s1, t1


def _hensel_pair(f, u, v, s, t, p, M):
    """Lift the monic factor u of f = u*v from mod p to mod M, given the
    Bezout identity s*u + t*v = 1 mod p.  M must be p^(2^k)."""
    # the step divides by its monic second factor, so u plays the h role
    g, h = [int(c) for c in v], [int(c) for c in u]
    S, T = [int(c) for c in t], [int(c) for c in s]
    m = p
    while m < M:
        g, h, S, T = _hensel_step(f, g, h, S, T, m)
        m *= m
    return h, g


def _int_divides(f, g) -> bool:
    """Does g (with lead +-1) divide f exactly over Z?"""
    if not g:
        return False
    r = list(f)
    while len(r) >= len(g):
        if r[-1] % g[-1]:
            return False
        c = r[-1] // g[-1]
        d = len(r) - len(g)
        for i, y in enumerate(g):
            r[i + d] -= c * y
        r = _trim_int(r)
        if not r:
            return True
    return not r


def _symmetric(a: list[int], m: int) -> list[int]:
    out = []
    for c in a:
        c %= m
        if c > m // 2:
            c -= m
        out.append(c)
    return out


def _mignotte_bound(f: list[int]) -> int:
    n = len(f) - 1
    norm = isqrt(sum(c * c for c in f)) + 1
    return 2**n * norm


def _to_monic_integer(f) -> list[int]:
    """Monic integer polynomial with the same irreducibility status:
    clear denominators, then substitute x -> x/lc scaled by lc^(n-1)."""
    den = 1
    for c in f:
        den = den * c.denominator // int_gcd(den, c.denominator)
    zs = [int(c * den) for c in f]
    cont = 0
    for c in zs:
        cont = int_gcd(cont, abs(c))
    zs = [c // cont for c in zs]
    if zs[-1] < 0:
        zs = [-c for c in zs]
    lc = zs[-1]
    if lc == 1:
        return zs
    n = len(zs) - 1
    return [c * lc ** (n - 1 - i) for i, c in enumerate(zs[:-1])] + [1]


def _rational_root_exists(f: list[int]) -> bool:
    """Monic integer polynomial: search for integer roots (fast path only;
    bounded divisor enumeration, completeness comes from recombination)."""
    const = f[0]
    if const == 0:
        return True
    cands = {1}
    a = abs(const)
    d = 1
    while d * d <= a and d <= 10**6:
        if a % d == 0:
            cands.update({d, a // d})
        d += 1
    for r in sorted(cands):
        for root in (r, -r):
            acc = 0
            for c in reversed(f):
                acc = acc * root + c
            if acc == 0:
                return True
    return False


_PRIMES = [p for p in range(3, 200) if is_prime(p)]


def qq_irreducible(f, rng=None) -> bool:
    """Decide irreducibility over QQ of a squarefree polynomial given by
    Fraction coefficients.  Degree patterns modulo several primes settle
    most inputs; Hensel lifting plus factor recombination decides the rest.
    """
    import random

    rng = rng or random.Random(0x5EED)
    n = len(f) - 1
    if n <= 0:
        raise GradixError("irreducibility of a constant")
    if n == 1:
        return True
    g = _to_monic_integer(f)
    if _rational_root_exists(g):
        return False
    possible = set(range(n + 1))
    best = None
    used = 0
    for p in _PRIMES:
        pat = ddf_degree_pattern(g, p)
        if pat is None:
            continue
        used += 1
        if len(pat) == 1:
            return True
        if best is None or len(pat) < len(best[1]):
            best = (p, pat)
        sums = {0}
        for d in pat:
            sums |= {s + d for s in sums}
        possible &= sums
        if possible <= {0, n}:
            return True
        if used >= 7:
            break
    if best is None:
        raise GradixError("no usable prime found; input may not be squarefree")
    p = best[0]
    factors = factor_mod_p(g, p, rng)
    if len(factors) == 1:
        return True
    bound = 2 * _mignotte_bound(g)
    M = p
    while M <= bound:
        M *= M
    F = PrimeField(p)
    lifted = []
    for u in factors:
        v = divmod_poly(monic(_mod_poly(g, p), F), u, F)[0]
        s, t, one = xgcd_poly(u, v, F)
        if len(one) != 1:
            raise GradixError("hensel: modular factors not coprime")
        lu, _ = _hensel_pair(g, u, v, s, t, p, M)
        lifted.append(lu)
    from itertools import combinations

    k = len(lifted)
    for size in range(1, k // 2 + 1):
        for combo in combinations(range(k), size):
            prod = [1]
            for i in combo:
                prod = _mulm(prod, lifted[i], M)
            cand = _symmetric(prod, M)
            if _int_divides(g, cand):
                return False
    return True
