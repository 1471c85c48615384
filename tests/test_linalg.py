"""Exact linear algebra: spans, kernels, rank-nullity."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gradix.fields import GF, QQ
from gradix.linalg import Span, kernel_basis, matvec, span_of

from oracles import RefSpan, ref_kernel_basis, ref_span_of


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
    r = span_of(F, 4, rows).dim
    assert r + len(kern) == 4
    for v in kern:
        assert all(c == 0 for c in matvec(F, rows, v))
    # kernel vectors are independent
    assert span_of(F, 4, kern).dim == len(kern)


@given(matrices)
def test_membership_rows_are_the_free_coordinates_of_the_reduction(rows):
    F = GF(5)
    s = span_of(F, 4, rows)
    ref = ref_span_of(F, 4, rows)
    conds = s.membership_rows()
    free = [r for r in range(4) if r not in s.rows]
    assert len(conds) == len(free)
    for j in range(4):
        unit = [1 if k == j else 0 for k in range(4)]
        reduced = ref.reduce(unit)
        assert [cond[j] for cond in conds] == [reduced[r] for r in free]


# ---------------------------------------------------------------------------
# differential: `Span` (plain ints, fraction-free over QQ) against the dense
# field-method reference `RefSpan`, answer for answer and type for type

FIELDS = [GF(2), GF(7), GF(32003), QQ]


def _typed(x):
    """A value with its type, so 1 and Fraction(1) do not compare equal."""
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [_typed(c) for c in x])
    if isinstance(x, dict):
        return sorted((k, _typed(v)) for k, v in x.items())
    return (type(x).__name__, x)


def _entries(field):
    if field.characteristic:
        return st.integers(0, field.characteristic - 1)
    return st.one_of(
        st.integers(-4, 4).map(Fraction),
        st.fractions(min_value=-10, max_value=10, max_denominator=10**15),
    )


@st.composite
def span_scripts(draw):
    """(field, n, vectors): fresh vectors, zero rows, repeated rows and
    combinations of earlier rows, so both outcomes of `add` occur."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 6))
    entry = _entries(field)
    coef = entry if field.characteristic else st.integers(-3, 3).map(Fraction)
    vectors = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat", "combination"]))
        if kind == "zero" or (kind != "fresh" and not vectors):
            v = [field.zero()] * n
        elif kind == "repeat":
            v = list(draw(st.sampled_from(vectors)))
        elif kind == "combination":
            a, b = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            ca, cb = draw(coef), draw(coef)
            v = [field.add(field.mul(ca, x), field.mul(cb, y)) for x, y in zip(a, b)]
        else:
            v = draw(st.lists(entry, min_size=n, max_size=n))
        vectors.append(v)
    probes = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
    return field, n, vectors, probes


def _assert_same_state(span, ref):
    assert span.dim == ref.dim
    assert _typed(span.rows) == _typed(ref.rows)
    assert _typed(span.key()) == _typed(ref.key())
    assert _typed(span.membership_rows()) == _typed(ref.membership_rows())


@settings(max_examples=300, deadline=None)
@given(span_scripts())
def test_span_matches_the_dense_reference(script):
    field, n, vectors, probes = script
    span, ref = Span(field, n), RefSpan(field, n)
    for v in vectors:
        assert span.add(v) == ref.add(v)
        _assert_same_state(span, ref)
        for w in probes + vectors:
            assert span.contains(w) == ref.contains(w)
    # a copy grows apart from its original, as the reference's does
    if probes:
        fork, ref_fork = span.copy(), ref.copy()
        assert fork.add(probes[0]) == ref_fork.add(probes[0])
        _assert_same_state(fork, ref_fork)
        _assert_same_state(span, ref)
    assert _typed(kernel_basis(field, vectors, n)) == _typed(ref_kernel_basis(field, vectors, n))
