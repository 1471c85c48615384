"""Brute-force ground truth on tiny finite quotient algebras: enumerate
every multiplication-closed subspace, decide irreducibility literally from
the definition, and exhaust decomposition searches.

Subspaces are identified by their reduced row echelon form; enumeration
order is by dimension, then echelon pattern, which makes every report
deterministic.  A Gaussian-binomial estimate guards against state-space
blowups before any work starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations, product

from .artin import QuotientBasis
from .errors import CapExceeded, GradixError
from .groebner import Ideal
from .gxparser import render
from .linalg import Span, kernel_basis, matvec

DEFAULT_CAP = 200_000


@dataclass
class FiniteAlgebra:
    field: object
    dimension: int
    matrices: list  # dense rows, one matrix per algebra generator (variable)
    degrees: list  # degree label per basis vector
    provenance: str = ""
    names: list = dc_field(default_factory=list)
    basis_labels: list = dc_field(default_factory=list)
    ring_header: str = ""

    @staticmethod
    def from_ideal(I: Ideal) -> "FiniteAlgebra":
        Q = QuotientBasis(I)
        mats = [Q.var_matrix(i) for i in range(I.ring.npres)]
        from .gxparser import _mono_str

        labels = [_mono_str(I.ring, m) or "1" for m in Q.monomials]
        return FiniteAlgebra(
            field=I.ring.field,
            dimension=Q.dimension,
            matrices=mats,
            degrees=list(Q.degrees),
            provenance=render(I),
            names=list(I.ring.pres_names),
            basis_labels=labels,
            ring_header=str(I.ring),
        )


@dataclass(frozen=True)
class Subspace:
    key: tuple  # RREF rows as nested tuples; canonical identity

    @property
    def dim(self) -> int:
        return len(self.key)


def _span_from_key(field, n, key) -> Span:
    s = Span(field, n)
    for row in key:
        s.add(list(row))
    return s


@dataclass
class IdealLattice:
    algebra: FiniteAlgebra
    members: list  # Subspace, every multiplication-closed subspace
    graded_members: list  # sublist spanned by degree-homogeneous vectors
    _spans: dict = dc_field(default_factory=dict)

    def span(self, s: Subspace) -> Span:
        if s.key not in self._spans:
            self._spans[s.key] = _span_from_key(
                self.algebra.field, self.algebra.dimension, s.key
            )
        return self._spans[s.key]

    def contains(self, big: Subspace, small: Subspace) -> bool:
        sp = self.span(big)
        return all(sp.contains(list(r)) for r in small.key)

    def intersection_dim(self, a: Subspace, b: Subspace) -> int:
        union = Span(self.algebra.field, self.algebra.dimension)
        for r in a.key:
            union.add(list(r))
        for r in b.key:
            union.add(list(r))
        return a.dim + b.dim - union.dim

    def intersect(self, a: Subspace, b: Subspace) -> Subspace:
        """Exact subspace intersection via membership conditions."""
        field = self.algebra.field
        n = self.algebra.dimension
        if not a.key or not b.key:
            return Subspace(())
        basis_a = a.key
        # combinations of a's basis that satisfy b's membership conditions
        rows = [matvec(field, basis_a, cond) for cond in self.span(b).membership_rows()]
        kern = kernel_basis(field, rows, len(basis_a))
        out = Span(field, n)
        for c in kern:
            vec = [field.zero()] * n
            for coef, v in zip(c, basis_a):
                if not field.is_zero(coef):
                    vec = [field.add(x, field.mul(coef, y)) for x, y in zip(vec, v)]
            out.add(vec)
        return Subspace(out.key())


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count_estimate(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def _all_rref(field, n: int):
    """Every reduced row echelon form over the field, by dimension then
    lexicographic pattern."""
    q = field.characteristic
    values = list(range(q))
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


def enumerate_ideals(A: FiniteAlgebra, cap: int = DEFAULT_CAP) -> IdealLattice:
    """Every multiplication-closed subspace of the algebra, exactly once."""
    estimate = subspace_count_estimate(A.dimension, A.field.characteristic)
    if estimate > cap:
        raise CapExceeded(estimate, cap)
    field = A.field
    n = A.dimension
    members = []
    graded = []
    degree_set = sorted(set(A.degrees))
    masks = {d: [i for i, dd in enumerate(A.degrees) if dd == d] for d in degree_set}
    for key in _all_rref(field, n):
        span = _span_from_key(field, n, key)
        closed = True
        for row in key:
            for M in A.matrices:
                if not span.contains(matvec(field, M, row)):
                    closed = False
                    break
            if not closed:
                break
        if not closed:
            continue
        sub = Subspace(key)
        members.append(sub)
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
            graded.append(sub)
    lattice = IdealLattice(A, members, graded)
    return lattice


# ---------------------------------------------------------------------------
# literal definition checks


def oracle_irreducible(lattice: IdealLattice, N: Subspace, graded: bool) -> bool:
    """Literally the definition: no pair of strictly larger (graded)
    members intersects to N."""
    pool = lattice.graded_members if graded else lattice.members
    bigger = [
        M
        for M in pool
        if M.dim > N.dim and lattice.contains(M, N)
    ]
    for i, M1 in enumerate(bigger):
        for M2 in bigger[i + 1 :]:
            if lattice.intersection_dim(M1, M2) == N.dim:
                return False
    return True


def _irreducible_pool(lattice: IdealLattice, graded: bool):
    pool = lattice.graded_members if graded else lattice.members
    return [N for N in pool if oracle_irreducible(lattice, N, graded)]


def oracle_index(lattice: IdealLattice, graded: bool) -> int:
    """Exact minimum length of a decomposition of 0 into (graded-)
    irreducible members, breadth-first by size."""
    zero = Subspace(())
    if oracle_irreducible(lattice, zero, graded):
        return 1
    pool = [N for N in _irreducible_pool(lattice, graded) if N.dim > 0]
    best = None

    def dfs(start: int, current: Subspace, size: int, budget: int):
        nonlocal best
        if current.dim == 0:
            best = size if best is None else min(best, size)
            return
        if size >= budget:
            return
        for idx in range(start, len(pool)):
            nxt = lattice.intersect(current, pool[idx])
            if nxt.dim < current.dim:
                dfs(idx + 1, nxt, size + 1, budget)

    for budget in range(2, lattice.algebra.dimension + 2):
        for idx in range(len(pool)):
            dfs(idx + 1, pool[idx], 1, budget)
            if best is not None:
                break
        if best is not None:
            return best
    raise GradixError("internal: no decomposition of 0 found in the lattice")


def socle_dimension(A: FiniteAlgebra) -> int:
    rows = [row for M in A.matrices for row in M]
    return len(kernel_basis(A.field, rows, A.dimension))


@dataclass
class TheoremReport:
    algebra: str
    lattice_size: int
    graded_size: int
    checks: int = 0
    failures: list = dc_field(default_factory=list)
    index_plain: int | None = None
    index_graded: int | None = None
    socle_dim: int | None = None
    decomposition_lengths: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _all_irredundant_lengths(lattice: IdealLattice, cap_count: int = 20000) -> list[int]:
    """Lengths of every irredundant decomposition of 0 into irreducible
    members (each prefix of an irredundant family strictly shrinks, so the
    strictly-shrinking DFS finds them all)."""
    pool = [N for N in _irreducible_pool(lattice, graded=False) if N.dim > 0]
    zero_irred = oracle_irreducible(lattice, Subspace(()), graded=False)
    lengths: list[int] = []
    if zero_irred:
        lengths.append(1)
        return lengths

    def irredundant(family: list[Subspace]) -> bool:
        for skip in range(len(family)):
            cur = None
            for t, M in enumerate(family):
                if t == skip:
                    continue
                cur = M if cur is None else lattice.intersect(cur, M)
            if cur is not None and cur.dim == 0:
                return False
        return True

    def dfs(start: int, current: Subspace | None, family: list):
        if len(lengths) >= cap_count:
            return
        if current is not None and current.dim == 0:
            if irredundant(family):
                lengths.append(len(family))
            return
        for idx in range(start, len(pool)):
            nxt = pool[idx] if current is None else lattice.intersect(current, pool[idx])
            if current is None or nxt.dim < current.dim:
                family.append(pool[idx])
                dfs(idx + 1, nxt, family)
                family.pop()

    dfs(0, None, [])
    return lengths


def oracle_theorems(A: FiniteAlgebra, cap: int = DEFAULT_CAP) -> TheoremReport:
    """Exhaustive verification on one graded algebra: graded-irreducible
    equals irreducible for every graded member, the graded and plain
    indices agree and equal the socle dimension, and every irredundant
    irreducible decomposition of 0 has the same length."""
    lattice = enumerate_ideals(A, cap)
    rep = TheoremReport(
        algebra=A.provenance or "anonymous",
        lattice_size=len(lattice.members),
        graded_size=len(lattice.graded_members),
    )
    for N in lattice.graded_members:
        rep.checks += 1
        gi = oracle_irreducible(lattice, N, graded=True)
        ui = oracle_irreducible(lattice, N, graded=False)
        if gi != ui:
            rep.failures.append(
                {
                    "statement": "graded-irreducible iff irreducible",
                    "member": N.key,
                    "graded_irreducible": gi,
                    "irreducible": ui,
                }
            )
    rep.index_plain = oracle_index(lattice, graded=False)
    rep.index_graded = oracle_index(lattice, graded=True)
    rep.socle_dim = socle_dimension(A)
    rep.checks += 2
    if rep.index_plain != rep.index_graded:
        rep.failures.append(
            {
                "statement": "graded and plain indices agree",
                "plain": rep.index_plain,
                "graded": rep.index_graded,
            }
        )
    if rep.index_plain != rep.socle_dim:
        rep.failures.append(
            {
                "statement": "index equals socle dimension",
                "plain": rep.index_plain,
                "socle": rep.socle_dim,
            }
        )
    rep.decomposition_lengths = sorted(set(_all_irredundant_lengths(lattice)))
    rep.checks += 1
    if rep.decomposition_lengths and rep.decomposition_lengths != [rep.index_plain]:
        rep.failures.append(
            {
                "statement": "every irredundant irreducible decomposition has the same length",
                "lengths": rep.decomposition_lengths,
                "expected": rep.index_plain,
            }
        )
    return rep


def dump_fixture(A: FiniteAlgebra) -> str:
    """Fixture text: the `.gx` declarations plus an explicit
    multiplication-table block in comments (one line per variable action)."""
    lines = []
    if A.ring_header:
        lines.append("ring " + A.ring_header + ";")
    if A.provenance:
        lines.append(f"ideal I = {A.provenance};")
    lines.append("# multiplication-table")
    lines.append(
        "# basis " + " ".join(f"b{i}={lbl}" for i, lbl in enumerate(A.basis_labels))
    )
    lines.append("# degrees " + " ".join(str(d) for d in A.degrees))
    field = A.field
    for name, M in zip(A.names, A.matrices):
        for j in range(A.dimension):
            expr = []
            for r in range(A.dimension):
                c = M[r][j]
                if not field.is_zero(c):
                    expr.append(f"{c}*b{r}")
            lines.append(f"# {name}*b{j} = " + (" + ".join(expr) if expr else "0"))
    return "\n".join(lines) + "\n"
