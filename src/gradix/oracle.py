"""Brute-force ground truth on tiny finite quotient algebras: enumerate
every ideal (multiplication-closed subspace), decide irreducibility
literally from the definition, and exhaust decomposition searches.

The scope is a graded ideal of a positively weighted ring over GF(p) with
a finite quotient; other inputs are refused.  Enumeration searches the
ideals themselves, not the subspaces, as submodule lattices are built from
cyclic submodules in the MeatAxe (Lux, Mueller, Ringe, "Peakword
condensation and submodule lattices", JSC 17, 1994):

1. every projective point v (first nonzero coordinate 1) is closed under
   the variable matrices into the cyclic ideal A*v, deduplicated by RREF;
   in a graded quotient a point with a nonzero constant term is a unit,
   so once one of them has closed to the whole algebra the others are
   skipped (`_is_local_at_first_coordinate` checks the grading first);
2. a breadth-first search from the zero ideal adds one cyclic ideal to
   each ideal found; the sum of two ideals is an ideal, so it needs no
   closure step.  Every ideal is a sum of cyclic ones, so all are found.

Subspaces are identified by their reduced row echelon form, and members
are ordered by dimension, then pivot columns, then entries, which makes
every report deterministic.  The cap counts the work: points plus sums
formed.  The number of points, (q^n - 1)/(q - 1), skipped units included,
is checked before the search starts; each sum is counted as it is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product

from .artin import QuotientBasis
from .errors import (
    CapExceeded,
    CharacteristicForbidden,
    GradixError,
    NotGraded,
    NotPositivelyGraded,
    ScopeError,
)
from .groebner import Ideal
from .gxparser import render
from .linalg import Span, kernel_basis, matvec

# admits GF(2) algebras up to dimension 14 and GF(3) up to dimension 9;
# enumerating (x^7, y^2) over GF(2) takes about 2 s on a 2-core machine
DEFAULT_CAP = 20_000


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
        """R/I for a graded ideal of a positively weighted ring over GF(p)
        with a finite nonzero quotient; anything else is refused, since
        the search needs finitely many points and the graded members need
        a grading of R/I, and the zero algebra has no decomposition of 0."""
        Q = QuotientBasis(I)
        if not Q.dimension:
            raise ScopeError("the lattice oracle needs a proper ideal (R/I is zero)")
        if I.ring.field.characteristic == 0:
            raise CharacteristicForbidden(0)
        if not I.is_graded():
            raise NotGraded("the lattice oracle needs a graded ideal")
        if not I.ring.positively_graded:
            raise NotPositivelyGraded("the lattice oracle needs positive weights")
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


@dataclass
class IdealLattice:
    algebra: FiniteAlgebra
    members: list  # Subspace, every multiplication-closed subspace
    graded_members: list  # sublist spanned by degree-homogeneous vectors
    _spans: dict  # key -> Span of every member
    _irreducible: dict = dc_field(default_factory=dict)
    _meets: dict = dc_field(default_factory=dict)  # (key, key) -> intersection

    def irreducible_members(self, graded: bool) -> list:
        """The (graded-)irreducible members in lattice order; each member
        is decided by `oracle_irreducible` once per lattice."""
        if graded not in self._irreducible:
            pool = self.graded_members if graded else self.members
            self._irreducible[graded] = [
                N for N in pool if oracle_irreducible(self, N, graded)
            ]
        return self._irreducible[graded]

    def span(self, s: Subspace) -> Span:
        """The span of a member, as the enumeration built it."""
        return self._spans[s.key]

    def contains(self, big: Subspace, small: Subspace) -> bool:
        sp = self.span(big)
        return all(sp.contains(list(r)) for r in small.key)

    def intersection_dim(self, a: Subspace, b: Subspace) -> int:
        union = self.span(a).copy()
        for r in b.key:
            union.add(list(r))
        return a.dim + b.dim - union.dim

    def intersect(self, a: Subspace, b: Subspace) -> Subspace:
        """Exact subspace intersection via membership conditions; the
        decomposition searches meet the same pairs again and again, so
        each pair is computed once per lattice."""
        pair = (a.key, b.key)
        if pair not in self._meets:
            self._meets[pair] = self._intersect(a, b)
        return self._meets[pair]

    def _intersect(self, a: Subspace, b: Subspace) -> Subspace:
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


def _projective_points(field, n: int):
    """Every vector of field^n whose first nonzero coordinate is 1."""
    values = [field.from_int(c) for c in range(field.characteristic)]
    for lead in range(n):
        head = [field.zero()] * lead + [field.one()]
        for tail in product(values, repeat=n - lead - 1):
            yield head + list(tail)


def _sparse_columns(A: FiniteAlgebra) -> list:
    """Per variable matrix, the nonzero (row, entry) pairs of each column;
    the matrices of a quotient algebra are mostly zeros."""
    f = A.field
    n = A.dimension
    return [
        [[(r, M[r][j]) for r in range(n) if not f.is_zero(M[r][j])] for j in range(n)]
        for M in A.matrices
    ]


def _cyclic_ideal(A: FiniteAlgebra, columns: list, v: list) -> Span:
    """A*v: the span of v closed under the variable matrices, given by
    their `_sparse_columns`."""
    f = A.field
    span = Span(f, A.dimension)
    span.add(v)
    todo = [v]
    while todo and span.dim < A.dimension:
        w = todo.pop()
        for cols in columns:
            image = [f.zero()] * A.dimension
            for c, col in zip(w, cols):
                if not f.is_zero(c):
                    for r, a in col:
                        image[r] = f.add(image[r], f.mul(a, c))
            if span.add(image):
                todo.append(image)
    return span


def _is_local_at_first_coordinate(A: FiniteAlgebra, columns: list) -> bool:
    """Does every variable map each basis vector b_j into basis vectors,
    other than b0, of strictly higher degree label?  Then the variables act
    nilpotently and no product has a b0-coordinate, so a point w with
    w[0] = 0 never generates the algebra, and once some point u with
    u[0] != 0 does, so does every v with v[0] != 0: v = s*u with
    s = c + (nilpotent) and v[0] = c * u[0], so s is a unit.  This holds
    for R/I of a graded ideal in positively weighted variables (b0 is the
    constant monomial), where the first point, b0 itself, generates."""
    deg = A.degrees
    return all(
        r and deg[r] > deg[j]
        for cols in columns
        for j, col in enumerate(cols)
        for r, _ in col
    )


def _is_graded(A: FiniteAlgebra, span: Span, masks) -> bool:
    """Every degree component of every basis row lies in the span."""
    zero = A.field.zero()
    for row in span.rows.values():
        for mask in masks:
            comp = [zero] * A.dimension
            for i in mask:
                comp[i] = row[i]
            if not span.contains(comp):
                return False
    return True


def enumerate_ideals(A: FiniteAlgebra, cap: int = DEFAULT_CAP) -> IdealLattice:
    """Every multiplication-closed subspace of the algebra, exactly once,
    as sums of cyclic ideals (see the module docstring).  Raises
    CapExceeded when the points to close plus the sums formed pass `cap`."""
    field = A.field
    n = A.dimension
    q = field.characteristic
    if q == 0:
        raise CharacteristicForbidden(0)
    work = (q**n - 1) // (q - 1)  # the points, all closed before any sum
    if work > cap:
        raise CapExceeded("ideal enumeration", cap)
    cyclic = {}  # key -> (generating point, span)
    columns = _sparse_columns(A)
    local = _is_local_at_first_coordinate(A, columns)
    units_closed = False
    for v in _projective_points(field, n):
        if units_closed and not field.is_zero(v[0]):
            continue  # a unit: A*v is the whole algebra, already a member
        span = _cyclic_ideal(A, columns, v)
        cyclic.setdefault(span.key(), (v, span))
        units_closed = units_closed or (local and span.dim == n)
    spans = {(): Span(field, n)}
    frontier = [()]
    while frontier:
        found = []
        for key in frontier:
            J = spans[key]
            for v, C in cyclic.values():
                if J.contains(v):  # J is an ideal, so it then contains A*v
                    continue
                work += 1
                if work > cap:
                    raise CapExceeded("ideal enumeration", cap)
                S = J.copy()
                for row in C.rows.values():
                    S.add(row)
                k = S.key()
                if k not in spans:
                    spans[k] = S
                    found.append(k)
        frontier = found
    order = sorted(spans, key=lambda k: (len(k), tuple(sorted(spans[k].rows)), k))
    masks = [
        [i for i, d in enumerate(A.degrees) if d == deg] for deg in sorted(set(A.degrees))
    ]
    members = [Subspace(k) for k in order]
    graded = [s for s in members if _is_graded(A, spans[s.key], masks)]
    return IdealLattice(A, members, graded, spans)


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


def oracle_index(lattice: IdealLattice, graded: bool) -> int:
    """Exact minimum length of a decomposition of 0 into (graded-)
    irreducible members, breadth-first by size."""
    irreducible = lattice.irreducible_members(graded)
    if Subspace(()) in irreducible:
        return 1
    pool = [N for N in irreducible if N.dim > 0]
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
    irreducible = lattice.irreducible_members(graded=False)
    if Subspace(()) in irreducible:
        return [1]
    pool = [N for N in irreducible if N.dim > 0]
    lengths: list[int] = []

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
    graded_irreducible = set(lattice.irreducible_members(graded=True))
    irreducible = set(lattice.irreducible_members(graded=False))
    for N in lattice.graded_members:
        rep.checks += 1
        gi = N in graded_irreducible
        ui = N in irreducible
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
