"""Exact dense linear algebra over QQ and GF(p): one elimination routine.

Vectors are lists of field elements; matrices are lists of row vectors.
`Span` keeps a row space in reduced echelon form, keyed by pivot column,
and `kernel_basis` reads a null space off it.  The inner loops run on
plain Python ints, with no field method call per entry:

- over GF(p) a stored row is the canonical residue list with pivot 1, and
  a row update is one list comprehension ending in `% p`;
- over QQ a stored row is a primitive integer vector (denominators
  cleared, content divided out, pivot positive), and rows are eliminated
  by cross-multiplication, fraction-free (Bareiss, "Sylvester's identity
  and multistep integer-preserving Gaussian elimination", Math. Comp. 22,
  1968).  A primitive vector with positive pivot is a canonical form of
  its line, so the pivot-1 rows of `rows` and `key()` are the same
  Fractions an elimination over QQ would give; they are built on demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_row(vec: list) -> tuple[list, int]:
    """(w, den) with vec = w / den, w integer: denominators cleared."""
    den = lcm(*{c.denominator for c in vec})
    if den == 1:
        return [c.numerator for c in vec], 1
    return [c.numerator * (den // c.denominator) for c in vec], den


def _primitive(w: list) -> list:
    """w divided by its content; w is nonzero with a positive pivot."""
    g = gcd(*w)
    return w if g == 1 else [a // g for a in w]


class Span:
    """Incrementally maintained row space in reduced echelon form.

    Rows are stored keyed by pivot column and fully reduced against each
    other, so membership tests and dimension are immediate.  `rows` shows
    them with pivot 1 (over QQ built from the integer rows on each read).
    """

    def __init__(self, field, n: int):
        self.field = field
        self.n = n
        self._p = field.characteristic
        self._rows: dict[int, list] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> dict[int, list]:
        if self._p:
            return self._rows
        return {p: [Fraction(a, row[p]) for a in row] for p, row in self._rows.items()}

    def _eliminate(self, vec: list) -> tuple[list, int]:
        """(w, s): the residual of vec against the span is w / s.  Over
        GF(p), s is 1; over QQ, w is an integer vector and s > 0."""
        rows = self._rows
        P = self._p
        if P:
            v = vec
            for p, row in rows.items():
                c = v[p]
                if c:
                    v = [(a - c * b) % P for a, b in zip(v, row)]
            return v, 1
        w, s = _integer_row(vec)
        for p, row in rows.items():
            c = w[p]
            if c:
                g = gcd(c, row[p])
                c //= g
                d = row[p] // g
                w = [a * d - c * b for a, b in zip(w, row)]
                s *= d
        return w, s

    def contains(self, vec: list) -> bool:
        return not any(self._eliminate(vec)[0])

    def add(self, vec: list) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        w = self._eliminate(vec)[0]
        pivot = next((i for i, a in enumerate(w) if a), None)
        if pivot is None:
            return False
        rows = self._rows
        P = self._p
        if P:
            inv = pow(w[pivot], P - 2, P)
            w = [a * inv % P for a in w]
            for p, row in rows.items():
                c = row[pivot]
                if c:
                    rows[p] = [(a - c * b) % P for a, b in zip(row, w)]
        else:
            w = _primitive(w if w[pivot] > 0 else [-a for a in w])
            d = w[pivot]
            for p, row in rows.items():
                c = row[pivot]
                if c:
                    g = gcd(c, d)
                    c //= g
                    dd = d // g
                    rows[p] = _primitive([a * dd - c * b for a, b in zip(row, w)])
        rows[pivot] = w
        return True

    def copy(self) -> "Span":
        """An independent span with the same rows; `add` replaces rows and
        never edits one in place, so the row lists are shared."""
        out = Span(self.field, self.n)
        out._rows = dict(self._rows)
        return out

    def membership_rows(self) -> list[list]:
        """Linear conditions for 'vector lies in the span': one row per
        free (non-pivot) coordinate r, whose product with v is the r-th
        coordinate of v's residual against the span.  The rows are in
        reduced echelon form, so that coordinate is v[r] minus
        v[p] * row_p[r] over the pivots p."""
        f = self.field
        out = []
        for r in range(self.n):
            if r in self._rows:
                continue
            cond = [f.zero()] * self.n
            cond[r] = f.one()
            for p, value in self._pivot_column(r):
                cond[p] = value
            out.append(cond)
        return out

    def _pivot_column(self, j: int):
        """(p, -row_p[j]) over the pivot-1 rows."""
        P = self._p
        if P:
            return [(p, -row[j] % P) for p, row in self._rows.items()]
        return [(p, Fraction(-row[j], row[p])) for p, row in self._rows.items()]

    def key(self) -> tuple:
        """Canonical identity key (RREF rows as nested tuples)."""
        rows = self.rows
        return tuple(tuple(rows[p]) for p in sorted(rows))


def span_of(field, n: int, vectors) -> Span:
    s = Span(field, n)
    for v in vectors:
        s.add(v)
    return s


def kernel_basis(field, rows: list[list], ncols: int) -> list[list]:
    """Basis of {v : M v = 0} for the matrix with the given rows: one
    vector per free column j, with 1 at j and -row_p[j] at each pivot p."""
    span = span_of(field, ncols, rows)
    basis = []
    for j in range(ncols):
        if j in span._rows:
            continue
        v = [field.zero()] * ncols
        v[j] = field.one()
        for p, value in span._pivot_column(j):
            v[p] = value
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
