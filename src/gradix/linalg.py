"""Exact dense linear algebra over an arbitrary coefficient field.

Vectors are lists of field elements; matrices are lists of row vectors.
Everything is Gaussian elimination with exact arithmetic, no pivot-size
heuristics needed.
"""

from __future__ import annotations


class Span:
    """Incrementally maintained row space in reduced echelon form.

    Rows are stored keyed by pivot column, each normalized to pivot 1 and
    fully reduced against each other, so membership tests and dimension
    are immediate.
    """

    def __init__(self, field, n: int):
        self.field = field
        self.n = n
        self.rows: dict[int, list] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: list) -> list:
        """Residual of vec after elimination against the span (vec is not modified)."""
        f = self.field
        v = list(vec)
        for p in sorted(self.rows):
            c = v[p]
            if not f.is_zero(c):
                row = self.rows[p]
                for i in range(p, self.n):
                    v[i] = f.sub(v[i], f.mul(c, row[i]))
        return v

    def contains(self, vec: list) -> bool:
        f = self.field
        return all(f.is_zero(c) for c in self.reduce(vec))

    def add(self, vec: list) -> bool:
        """Insert vec; returns True if it enlarged the span."""
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

    def copy(self) -> "Span":
        """An independent span with the same rows; `add` replaces rows and
        never edits one in place, so the row lists are shared."""
        out = Span(self.field, self.n)
        out.rows = dict(self.rows)
        return out

    def membership_rows(self) -> list[list]:
        """Linear conditions for 'vector lies in the span': one row per
        free (non-pivot) coordinate r, whose product with v is the r-th
        coordinate of `reduce(v)`.  The rows are in reduced echelon form,
        so that coordinate is v[r] minus v[p] * row_p[r] over the pivots p."""
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

    def key(self) -> tuple:
        """Canonical identity key (RREF rows as nested tuples)."""
        return tuple(tuple(self.rows[p]) for p in sorted(self.rows))


def span_of(field, n: int, vectors) -> Span:
    s = Span(field, n)
    for v in vectors:
        s.add(v)
    return s


def rank(field, rows: list[list]) -> int:
    if not rows:
        return 0
    return span_of(field, len(rows[0]), rows).dim


def kernel_basis(field, rows: list[list], ncols: int) -> list[list]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    span = span_of(field, ncols, rows)
    pivots = sorted(span.rows)
    free = [j for j in range(ncols) if j not in span.rows]
    basis = []
    for j in free:
        v = [field.zero()] * ncols
        v[j] = field.one()
        for p in pivots:
            # pivot variable value = -(row coefficient at the free column)
            v[p] = field.neg(span.rows[p][j])
        basis.append(v)
    return basis


def matvec(field, rows: list[list], v: list) -> list:
    out = []
    for row in rows:
        acc = field.zero()
        for a, b in zip(row, v):
            if not field.is_zero(a) and not field.is_zero(b):
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out
