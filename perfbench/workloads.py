"""Seeded inputs, operations and answer checks for the gradix benchmark.

Every input is `.gx` text built here with the standard library only, so a
change to gradix, its corpus generator included, cannot shift a workload.

Each workload is a list of strata.  A stratum is a fixed catalogue of
inputs: entry `key` is built from `random.Random(f"{workload}/{stratum}/{key}")`
and nothing else.  A run's seed only chooses which catalogue entries it
visits and in what order.  Because the catalogues are fixed,
`expected.json` pins the answer of every entry any seed can reach.

A round takes a fixed number of entries from every stratum, so the share
of heavy inputs, and with it throughput and the latency percentiles, does
not drift with the seed.  The heavy strata are pinned: a cycle of rounds
visits each of their entries once, and a run measures whole cycles.  The
seed changes the light inputs and the order, not which heavy inputs are
measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import prod

# ---------------------------------------------------------------------------
# sparse polynomials: {exponent tuple: coefficient}; `p` is the field
# characteristic, 0 for QQ where coefficients are Fractions


def _norm(c, p):
    return c % p if p else c


def padd(f, g, p):
    out = dict(f)
    for m, c in g.items():
        v = _norm(out.get(m, 0) + c, p)
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def pmul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: v for m, c in out.items() if (v := _norm(c, p))}


def monomial(exps, c=1):
    return {tuple(exps): c}


def unit_exps(n, i, e=1):
    return tuple(e if k == i else 0 for k in range(n))


def substitute(f, images, p, n):
    """f(images[0], images[1], ...) where every image is a polynomial in n variables."""
    out = {}
    for m, c in f.items():
        term = {(0,) * n: c}
        for img, e in zip(images, m):
            for _ in range(e):
                term = pmul(term, img, p)
        out = padd(out, term, p)
    return out


def render(f, names, p):
    """`.gx` text of a polynomial, terms by descending total degree."""
    parts = []
    for m in sorted(f, key=lambda m: (-sum(m), tuple(-e for e in m))):
        c = f[m] if p else Fraction(f[m])
        neg = not p and c < 0
        mag = str(abs(c))
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, m) if e)
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        parts.append(("-" if neg else "+") + body)
    return "".join(parts).removeprefix("+")


def document(field, names, gens, p):
    return (
        f"ring {field}[{','.join(names)}];\n"
        f"ideal I = {', '.join(render(g, names, p) for g in gens)};\n"
    )


def homogeneous_monomials(n, d):
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1) for rest in homogeneous_monomials(n - 1, d - a)]


# ---------------------------------------------------------------------------
# monomial shapes whose index of reducibility is known without gradix


def staircase(rng, ngens, lo, hi):
    """Minimal generators x^a*y^b of a 2-variable monomial ideal with
    `ngens` generators and colength in [lo, hi].  Its socle is spanned by
    the ngens-1 inner corners, so its index of reducibility is ngens-1."""
    side = max(1, round((2 * (lo + hi) / (ngens * (ngens - 1))) ** 0.5))
    while True:
        widths = [rng.randint(1, 2 * side) for _ in range(ngens - 1)]
        rises = [rng.randint(1, 2 * side) for _ in range(ngens - 1)]
        a = [sum(widths[i:]) for i in range(ngens - 1)] + [0]
        b = [0] + list(accumulate(rises))
        colength = sum(ai * r for ai, r in zip(a, rises))
        if lo <= colength <= hi:
            return list(zip(a, b))


def _up(m, i):
    return tuple(e + (k == i) for k, e in enumerate(m))


def _down_closed(m, inside):
    return all(tuple(e - (k == i) for k, e in enumerate(m)) in inside for i in range(len(m)) if m[i])


def order_ideal(rng, n, dim):
    """A random down-closed set of `dim` monomials in n variables.

    Returns the minimal generators of the monomial ideal it complements and
    the number of its maximal elements, which is the socle dimension of the
    quotient and so its index of reducibility."""
    inside = {(0,) * n}
    while len(inside) < dim:
        frontier = sorted({_up(m, i) for m in inside for i in range(n)} - inside)
        inside.add(rng.choice([m for m in frontier if _down_closed(m, inside)]))
    outside = {_up(m, i) for m in inside for i in range(n)} - inside
    gens = [m for m in sorted(outside) if _down_closed(m, inside)]
    maximal = sum(1 for m in inside if all(_up(m, i) not in inside for i in range(n)))
    return gens, maximal


def invertible_linear_map(rng, n, p):
    """Random rows of an invertible n x n matrix over GF(p)."""
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _rank_mod(rows, p) == n:
            return rows


def _rank_mod(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c] % p:
                f = rows[r][c] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _small_rational(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class Op:
    """One user-level question about one ideal."""

    id: str  # "<stratum>/<catalogue key>", the key of expected.json
    kind: str  # verify | index | compare | moh | oracle
    text: str | None  # the `.gx` document, parsed afresh by every op
    param: int | None = None  # l of moh(3, l)
    expect_r: int | None = None  # index of reducibility known from the shape


def _corpus_op(nvars, lo, hi):
    """The verify-thm recipe over GF(3): a power of each variable (exponent
    at most 4) plus up to three random forms of degree at most 3.  The
    product of the exponents, which bounds the quotient length, selects the
    stratum."""
    names = "xyzw"[:nvars]

    def build(rng, oid):
        while True:
            exps = [rng.randint(1, 4) for _ in range(nvars)]
            if lo < prod(exps) <= hi:
                break
        gens = [monomial(unit_exps(nvars, i, e)) for i, e in enumerate(exps)]
        for _ in range(rng.randint(0, 3)):
            d = rng.randint(1, 3)
            f = {m: c for m in homogeneous_monomials(nvars, d) if (c := rng.randint(0, 2))}
            if f:
                gens.append(f)
        return Op(oid, "verify", document("GF(3)", names, gens, 3))

    return build


# x^d costs grow like d^2.6 (x^300 takes about 0.7 s, x^3000 does not
# finish), so the 1-variable entries stop at this power.
MAX_POWER = 300


def _ladder_op(lo, hi):
    """x^d (index 1) for a third of the entries, else a 2-variable staircase."""

    def build(rng, oid):
        if rng.random() < 1 / 3:
            d = rng.randint(lo, min(hi, MAX_POWER))
            return Op(oid, "index", document("GF(7)", "x", [monomial((d,))], 7), expect_r=1)
        ngens = rng.randint(2, 7)
        gens = [monomial(m) for m in staircase(rng, ngens, lo, hi)]
        return Op(oid, "index", document("GF(7)", "xy", gens, 7), expect_r=ngens - 1)

    return build


def _truncated_op(nvars):
    """A non-graded ideal primary to the origin over QQ: variable powers,
    some products x_i*x_j, and one or two binomials x_i^a + c*x_j^b with
    a != b.  Most are non-graded and take the truncated star method; the
    rest turn out graded and take the identity path."""
    names = "xyz"[:nvars]

    def build(rng, oid):
        exps = [rng.randint(3, 5) for _ in range(nvars)]
        gens = [monomial(unit_exps(nvars, i, e)) for i, e in enumerate(exps)]
        for i in range(nvars):
            for j in range(i + 1, nvars):
                if rng.random() < 0.5:
                    gens.append(monomial(int(k in (i, j)) for k in range(nvars)))
        for _ in range(rng.randint(1, 2)):
            while True:
                i, j = rng.sample(range(nvars), 2)
                a, b = rng.randint(1, exps[i] - 1), rng.randint(1, exps[j] - 1)
                if a != b:
                    break
            gens.append({unit_exps(nvars, i, a): 1, unit_exps(nvars, j, b): _small_rational(rng)})
        return Op(oid, "compare", document("QQ", names, gens, 0))

    return build


def _lambda_op(ngens):
    """A 2-variable monomial staircase with ngens generators moved to a
    point with nonzero rational coordinates: primary to a non-graded
    maximal ideal, so the star comes from the lambda method (saturate,
    then eliminate).  Translation keeps the index of reducibility: ngens-1."""

    def build(rng, oid):
        a = sorted(rng.sample(range(1, 5), ngens - 1), reverse=True) + [0]
        b = [0] + list(accumulate(rng.randint(1, 2) for _ in range(ngens - 1)))
        point = [_small_rational(rng), _small_rational(rng)]
        shift = [{(1, 0): 1, (0, 0): -point[0]}, {(0, 1): 1, (0, 0): -point[1]}]
        gens = [substitute(monomial(m), shift, 0, 2) for m in zip(a, b)]
        return Op(oid, "compare", document("QQ", "xy", gens, 0), expect_r=ngens - 1)

    return build


def _quadratic_point_op(rng, oid):
    """A monomial staircase in u = x^2 - c (c not a square) and v = y - s*x - t:
    primary to a maximal ideal whose residue field is QQ(sqrt(c)), so the
    maximality certificate needs an irreducibility test over QQ.  u, v are
    regular parameters there, so the index of reducibility is ngens-1."""
    ngens = rng.randint(2, 3)
    a = sorted(rng.sample(range(1, 4), ngens - 1), reverse=True) + [0]
    b = list(range(ngens))
    c = rng.choice([2, 3, 5, 6, 7, -1, -2, -3])
    u = {(2, 0): 1, (0, 0): -c}
    v = {(0, 1): 1, (1, 0): -_small_rational(rng), (0, 0): -_small_rational(rng)}
    gens = [substitute(monomial(m), [u, v], 0, 2) for m in zip(a, b)]
    return Op(oid, "compare", document("QQ", "xy", gens, 0), expect_r=ngens - 1)


def _moh_op(rng, oid):
    """moh(3, l) over QQ for odd l = 25, 27, ...: entry key k takes l = 25 + 2k."""
    key = int(oid.rsplit("/", 1)[1])
    return Op(oid, "moh", None, param=25 + 2 * key)


def _oracle_op(p, dims):
    """A graded algebra GF(p)[vars]/I of the given dimension: a random
    monomial order ideal in 1-3 variables, moved by a random invertible
    linear change of coordinates so that I is graded but not monomial."""

    def build(rng, oid):
        n = rng.choice([1, 2, 2, 3, 3])
        gens, maximal = order_ideal(rng, n, rng.choice(dims))
        rows = invertible_linear_map(rng, n, p)
        images = [{unit_exps(n, j): c for j, c in enumerate(row) if c} for row in rows]
        polys = [substitute(monomial(g), images, p, n) for g in gens]
        return Op(oid, "oracle", document(f"GF({p})", "xyz"[:n], polys, p), expect_r=maximal)

    return build


@dataclass(frozen=True)
class Stratum:
    name: str
    per_round: int  # entries taken from this stratum in every round
    size: int  # catalogue size
    build: object  # (rng, op id) -> Op


@dataclass(frozen=True)
class Workload:
    cycle: int  # rounds per cycle; a run measures whole cycles
    strata: list


# A stratum whose size is per_round * cycle is pinned: every cycle visits
# each of its entries exactly once, so every run measures the same heavy
# inputs however many cycles it completes.  The other strata are large and
# the seed samples them.
WORKLOADS = {
    # The paper's main experiment: reduc.verify_equivalence on graded
    # m-primary ideals in 3-4 variables over GF(3).  Many small Groebner
    # bases and small linear algebra, with a heavy 4-variable tail.
    "corpus-gf3": Workload(8, [
        Stratum("vars3", 5, 256, _corpus_op(3, 0, 64)),
        Stratum("vars4", 5, 256, _corpus_op(4, 0, 60)),
        Stratum("vars4-tail", 2, 16, _corpus_op(4, 60, 100)),
    ]),
    # reduc.index_of_reducibility on monomial ideals over GF(7): trivial
    # Groebner bases, large quotients, so action matrices, minimal
    # polynomials and kernels carry the work.
    "index-ladder": Workload(4, [
        Stratum("len60-120", 4, 256, _ladder_op(60, 120)),
        Stratum("len120-220", 6, 128, _ladder_op(120, 220)),
        Stratum("len220-450", 2, 8, _ladder_op(220, 450)),
    ]),
    # reduc.compare_star over QQ on non-graded ideals, plus cli.moh_command:
    # elimination orders, saturation, non-homogeneous inputs, Fraction growth.
    "star-qq": Workload(4, [
        Stratum("truncated2", 4, 256, _truncated_op(2)),
        Stratum("truncated3", 3, 128, _truncated_op(3)),
        Stratum("lambda2", 2, 128, _lambda_op(2)),
        Stratum("lambda3", 2, 128, _lambda_op(3)),
        Stratum("lambda4", 1, 64, _lambda_op(4)),
        Stratum("quadratic-point", 1, 4, _quadratic_point_op),
        Stratum("moh", 2, 8, _moh_op),
    ]),
    # oracle.oracle_theorems on small graded algebras: exhaustive lattice
    # enumeration, millions of tiny spans instead of a few large ones.
    "oracle-lattice": Workload(4, [
        Stratum("gf2-dim3to5", 2, 256, _oracle_op(2, (3, 4, 5))),
        Stratum("gf3-dim3to4", 2, 256, _oracle_op(3, (3, 4))),
        Stratum("gf2-dim6", 4, 16, _oracle_op(2, (6,))),
        Stratum("gf3-dim5", 4, 16, _oracle_op(3, (5,))),
    ]),
}


def build_op(workload, stratum, key):
    oid = f"{stratum.name}/{key}"
    return stratum.build(random.Random(f"{workload}/{oid}"), oid)


def catalogue(workload):
    """Every op any seed of the workload can reach."""
    return [build_op(workload, s, k) for s in WORKLOADS[workload].strata for k in range(s.size)]


def cycles(workload, seed):
    """Endless cycles of ops for one seed.  Every round of a cycle has the
    same stratum mix, in a seeded order."""
    spec = WORKLOADS[workload]
    perms = []
    for s in spec.strata:
        perm = list(range(s.size))
        random.Random(f"{workload}/{seed}/{s.name}").shuffle(perm)
        perms.append(perm)
    order = random.Random(f"{workload}/{seed}/order")
    j = 0
    while True:
        ops = []
        for _ in range(spec.cycle):
            batch = [
                build_op(workload, s, perm[(j * s.per_round + t) % s.size])
                for s, perm in zip(spec.strata, perms)
                for t in range(s.per_round)
            ]
            order.shuffle(batch)
            ops += batch
            j += 1
        yield ops


# ---------------------------------------------------------------------------
# running and checking one op; `gx` is the imported gradix package


def execute(gx, op):
    """The measured work of one op: parse the document, answer the question."""
    if op.kind == "moh":
        return gx.cli.moh_command(3, op.param, gx.QQ)
    _, ideals, _ = gx.parse_document(op.text)
    ideal = ideals["I"]
    if op.kind == "verify":
        return gx.reduc.verify_equivalence([ideal])
    if op.kind == "index":
        return gx.reduc.index_of_reducibility(ideal)
    if op.kind == "compare":
        return gx.reduc.compare_star(ideal)
    return gx.oracle.oracle_theorems(gx.oracle.FiniteAlgebra.from_ideal(ideal))


def summarize(gx, op, res):
    """The answer of an op as JSON-ready data; the pinned digest covers all of it."""
    if op.kind == "verify":
        return {"total": res.total, "passed": res.passed, "checks": res.checks, "failures": res.failures}
    if op.kind == "index":
        return {"r": res}
    if op.kind == "moh":
        return res
    if op.kind == "compare":
        st = res.star_result
        return {
            "r": res.r,
            "r_star": res.r_star,
            "mu": res.quotient_generator_count,
            "principal": res.quotient_principal,
            "hypothesis_met": res.hypothesis_met,
            "conclusion_holds": res.conclusion_holds,
            "radical_graded": res.radical_graded,
            "method": st.method,
            "certificate": st.certificate,
            "star": [gx.render(g) for g in st.ideal.groebner_basis()],
        }
    return {
        "lattice_size": res.lattice_size,
        "graded_size": res.graded_size,
        "checks": res.checks,
        "failures": res.failures,
        "index_plain": res.index_plain,
        "index_graded": res.index_graded,
        "socle_dim": res.socle_dim,
        "decomposition_lengths": res.decomposition_lengths,
    }


def digest(answer):
    text = json.dumps(answer, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def independent_problems(gx, op, answer):
    """Checks that do not rest on the pinned answers."""
    problems = []
    if op.kind == "verify":
        if answer["failures"] or answer["passed"] != 1:
            problems.append(f"verify_equivalence reported failures: {answer['failures']}")
    elif op.kind == "index":
        if answer["r"] != op.expect_r:
            problems.append(f"index {answer['r']} differs from the staircase count {op.expect_r}")
    elif op.kind == "compare":
        if op.expect_r is not None and answer["r"] != op.expect_r:
            problems.append(f"index {answer['r']} differs from the staircase count {op.expect_r}")
        if answer["hypothesis_met"] and not answer["conclusion_holds"]:
            problems.append("principal-quotient hypothesis met but r != r*")
    elif op.kind == "moh":
        # Moh: the curve ideals for odd n need at least n+1 local generators
        if answer["local_min_generators"] < 4:
            problems.append(f"moh(3, {op.param}) has {answer['local_min_generators']} < 4 generators")
    else:
        if answer["failures"]:
            problems.append(f"oracle_theorems reported failures: {answer['failures']}")
        if answer["index_plain"] != op.expect_r:
            problems.append(f"oracle index {answer['index_plain']} differs from the shape count {op.expect_r}")
        _, ideals, _ = gx.parse_document(op.text)
        r = gx.reduc.index_of_reducibility(ideals["I"])
        if answer["index_plain"] != r:
            problems.append(f"oracle index {answer['index_plain']} differs from index_of_reducibility {r}")
    return problems
