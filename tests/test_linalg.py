"""Exact linear algebra: spans, kernels, rank-nullity."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gradix.fields import GF, QQ
from gradix.linalg import Span, kernel_basis, matvec, rank, span_of


def test_span_membership_and_dim():
    s = Span(QQ, 3)
    assert s.add([Fraction(1), Fraction(0), Fraction(1)])
    assert s.add([Fraction(0), Fraction(1), Fraction(1)])
    assert not s.add([Fraction(1), Fraction(1), Fraction(2)])  # dependent
    assert s.dim == 2
    assert s.contains([Fraction(2), Fraction(-1), Fraction(1)])
    assert not s.contains([Fraction(0), Fraction(0), Fraction(1)])


def test_span_key_is_canonical():
    a = span_of(GF(5), 2, [[1, 2], [0, 0]])
    b = span_of(GF(5), 2, [[2, 4], [3, 6]])
    assert a.key() == b.key()


matrices = st.lists(
    st.lists(st.integers(0, 4), min_size=4, max_size=4), min_size=1, max_size=5
)


@settings(max_examples=60)
@given(matrices)
def test_kernel_rank_nullity_gf5(rows):
    F = GF(5)
    kern = kernel_basis(F, rows, 4)
    r = rank(F, rows)
    assert r + len(kern) == 4
    for v in kern:
        assert all(c == 0 for c in matvec(F, rows, v))
    # kernel vectors are independent
    assert rank(F, kern) == len(kern) if kern else True


@given(matrices)
def test_membership_rows_are_the_free_coordinates_of_the_reduction(rows):
    F = GF(5)
    s = span_of(F, 4, rows)
    conds = s.membership_rows()
    free = [r for r in range(4) if r not in s.rows]
    assert len(conds) == len(free)
    for j in range(4):
        unit = [1 if k == j else 0 for k in range(4)]
        reduced = s.reduce(unit)
        assert [cond[j] for cond in conds] == [reduced[r] for r in free]
