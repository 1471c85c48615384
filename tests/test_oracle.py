"""Exhaustive lattice oracle on small finite algebras."""

import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gradix.artin import QuotientBasis, socle
from gradix.errors import CapExceeded
from gradix.fields import GF
from gradix.groebner import Ideal
from gradix.invsys import decompose
from gradix import oracle
from gradix.gxparser import parse_file, parse_poly
from gradix.oracle import (
    FiniteAlgebra,
    Subspace,
    dump_fixture,
    enumerate_ideals,
    oracle_index,
    oracle_irreducible,
    oracle_theorems,
)
from gradix.poly import RingSpec
from gradix.reduc import index_of_reducibility
from oracles import (
    dense,
    gaussian_binomial,
    monomials_of_degree,
    ref_ideal_keys,
    subspace_count_estimate,
)
from test_acceptance import ORACLE_FIXTURES

FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def algebra(field, names, gens):
    ring = RingSpec.make(field, names)
    return FiniteAlgebra.from_ideal(Ideal(ring, [parse_poly(s, ring) for s in gens]))


def test_gaussian_binomials():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert subspace_count_estimate(2, 2) == 5  # 0, three lines, plane


def test_enumerate_dual_numbers():
    A = algebra(GF(2), ("x",), ["x^2"])
    lat = enumerate_ideals(A)
    assert len(lat.members) == 3  # 0, (x), everything
    assert len(lat.graded_members) == 3


def test_enumerate_square_of_maximal_gf2():
    A = algebra(GF(2), ("x", "y"), ["x^2", "x*y", "y^2"])
    lat = enumerate_ideals(A)
    # 0, (x), (y), (x+y), the maximal ideal, and the whole algebra
    assert len(lat.members) == 6


def test_cap_exceeded():
    A = algebra(GF(3), ("x", "y"), ["x^4", "x*y", "y^4"])
    with pytest.raises(CapExceeded):
        enumerate_ideals(A, cap=10)


def test_oracle_irreducible_cases():
    A = algebra(GF(2), ("x",), ["x^2"])
    lat = enumerate_ideals(A)
    zero = Subspace(())
    assert oracle_irreducible(lat, zero, graded=False)
    assert oracle_irreducible(lat, zero, graded=True)
    whole = max(lat.members, key=lambda s: s.dim)
    assert oracle_irreducible(lat, whole, graded=False)

    B = algebra(GF(2), ("x", "y"), ["x^2", "x*y", "y^2"])
    latB = enumerate_ideals(B)
    assert not oracle_irreducible(latB, Subspace(()), graded=False)
    assert not oracle_irreducible(latB, Subspace(()), graded=True)


def test_oracle_index_matches_socle():
    A = algebra(GF(2), ("x", "y"), ["x^2", "x*y", "y^2"])
    lat = enumerate_ideals(A)
    assert oracle_index(lat, graded=False) == 2 == len(socle(A.quotient))
    B = algebra(GF(3), ("x",), ["x^3"])
    latB = enumerate_ideals(B)
    assert oracle_index(latB, graded=False) == 1 == len(socle(B.quotient))


def test_oracle_index_min_nonmonomial_gf3():
    A = algebra(GF(3), ("x", "y"), ["x^2+x*y", "x^2-y^2", "y^3"])
    lat = enumerate_ideals(A)
    assert oracle_index(lat, graded=False) == 2
    assert oracle_index(lat, graded=True) == 2


def test_oracle_theorems_small():
    for A in (
        algebra(GF(2), ("x", "y"), ["x^2", "x*y", "y^2"]),
        algebra(GF(3), ("x",), ["x^3"]),
        algebra(GF(3), ("x", "y"), ["x^2", "y"]),
    ):
        rep = oracle_theorems(A)
        assert rep.ok, rep.failures


def test_oracle_theorems_min_nonmonomial_gf3():
    A = algebra(GF(3), ("x", "y"), ["x^2+x*y", "x^2-y^2", "y^3"])
    rep = oracle_theorems(A)
    assert rep.ok, rep.failures
    assert rep.index_plain == 2 == rep.index_graded
    assert rep.decomposition_lengths == [2]


def test_lattice_count_regression_gf3():
    # frozen from the enumeration itself: the 4-dimensional quotient over
    # GF(3) carries 11 multiplication-closed subspaces, 9 of them graded
    A = algebra(GF(3), ("x", "y"), ["x^2+x*y", "x^2-y^2", "y^3"])
    lat = enumerate_ideals(A)
    assert len(lat.members) == 11
    assert len(lat.graded_members) == 9


def test_lattice_closed_under_intersection_and_multiplication():
    A = algebra(GF(3), ("x", "y"), ["x^2+x*y", "x^2-y^2", "y^3"])
    lat = enumerate_ideals(A)
    keys = {m.key for m in lat.members}
    Q = A.quotient
    field = Q.ring.field
    for a in lat.members:
        for b in lat.members:
            assert lat.intersect(a, b).key in keys
    # multiplication closure, sampled directly on basis vectors
    for m in lat.members:
        span = lat.span(m)
        for row in m.key:
            for M in (dense(Q.action_matrix(Q.ring.var(name)), Q.dimension) for name in ("x", "y")):
                img = [
                    sum(M[r][j] * row[j] for j in range(Q.dimension)) % 3
                    for r in range(Q.dimension)
                ]
                assert span.contains([field.from_int(c) for c in img])


def test_fixture_dump_format():
    A = algebra(GF(3), ("x",), ["x^2"])
    text = dump_fixture(A)
    assert "ring GF(3)[x]" in text
    assert "ideal I = x^2;" in text
    assert "# multiplication-table" in text
    assert "# x*b0 = " in text
    # the .gx part of the fixture re-parses
    from gradix.gxparser import parse_document

    ring, ideals, _ = parse_document(text)
    assert "I" in ideals


@pytest.mark.parametrize(
    "field,gens,text",
    [
        (
            GF(3),
            ["x^2+x*y", "x^2-y^2", "y^3"],
            "ring GF(3)[x,y] weights(1,1);\n"
            "ideal I = x^2+x*y, x^2+2*y^2, y^3;\n"
            "# multiplication-table\n"
            "# basis b0=1 b1=y b2=x b3=y^2\n"
            "# degrees 0 1 1 2\n"
            "# x*b0 = 1*b2\n# x*b1 = 2*b3\n# x*b2 = 1*b3\n# x*b3 = 0\n"
            "# y*b0 = 1*b1\n# y*b1 = 1*b3\n# y*b2 = 2*b3\n# y*b3 = 0\n",
        ),
        (
            GF(2),
            ["x^2", "y^2"],
            "ring GF(2)[x,y] weights(1,1);\n"
            "ideal I = x^2, y^2;\n"
            "# multiplication-table\n"
            "# basis b0=1 b1=y b2=x b3=x*y\n"
            "# degrees 0 1 1 2\n"
            "# x*b0 = 1*b2\n# x*b1 = 1*b3\n# x*b2 = 0\n# x*b3 = 0\n"
            "# y*b0 = 1*b1\n# y*b1 = 0\n# y*b2 = 1*b3\n# y*b3 = 0\n",
        ),
    ],
)
def test_fixture_dump_text_is_pinned(field, gens, text):
    A = algebra(field, ("x", "y"), gens)
    assert dump_fixture(A) == text
    assert oracle_theorems(A).algebra == text.splitlines()[1][len("ideal I = ") : -1]


# ---------------------------------------------------------------------------
# the cyclic-ideal search against the walk over every subspace


def _same_lattice(A):
    lat = enumerate_ideals(A)
    members, graded = ref_ideal_keys(A)
    assert [m.key for m in lat.members] == members
    assert [m.key for m in lat.graded_members] == graded


def _finite_algebra(I):
    """R/I as a FiniteAlgebra without the oracle's scope checks, so that
    non-graded quotients are enumerated too."""
    return FiniteAlgebra(QuotientBasis(I))


def _gf_fixture_ideals():
    cases = []
    for fixture in sorted(os.listdir(FIX)):
        if fixture.endswith(".gx"):
            ring, ideals, _ = parse_file(os.path.join(FIX, fixture))
            if ring.field.characteristic:
                cases += [(fixture, name) for name in sorted(ideals)]
    return cases


@pytest.mark.parametrize("fixture,name", _gf_fixture_ideals())
def test_enumeration_matches_the_subspace_walk_on_fixtures(fixture, name):
    _, ideals, _ = parse_file(os.path.join(FIX, fixture))
    _same_lattice(_finite_algebra(ideals[name]))


@pytest.mark.parametrize("field,names,gens", ORACLE_FIXTURES)
def test_enumeration_matches_the_subspace_walk_on_oracle_fixtures(field, names, gens):
    _same_lattice(algebra(field, names, gens))


@pytest.mark.parametrize(
    "p,names,gens",
    [(2, ("x",), ["x^2+x"]), (3, ("x", "y"), ["x^2+x", "y^2"])],
)
def test_enumeration_matches_the_subspace_walk_on_non_local_algebras(p, names, gens):
    """x^2 + x splits R/I into two fields, so 1 + x is a zero divisor with
    a nonzero constant term: the units cannot be skipped there."""
    ring = RingSpec.make(GF(p), names)
    _same_lattice(_finite_algebra(Ideal(ring, [parse_poly(g, ring) for g in gens])))


def test_unit_points_are_not_closed(monkeypatch):
    """R/(x^2, y^2) over GF(2) has 15 projective points; the 8 with a
    nonzero constant term are units, and only the first of them is closed."""
    closed = []
    closure = oracle.closure

    def counting(Q, vectors, step):
        closed.append(vectors)
        return closure(Q, vectors, step)

    monkeypatch.setattr(oracle, "closure", counting)
    A = algebra(GF(2), ("x", "y"), ["x^2", "y^2"])
    _same_lattice(A)
    assert len(closed) == 15 - 8 + 1


@st.composite
def graded_ideals(draw):
    """I = (all monomials of degree D) plus up to three random forms of
    degree D - 1, over GF(2) or GF(3), with R/I over GF(2) of dimension
    <= 6 or over GF(3) of dimension <= 5 (the walk over GF(3)^6 takes over
    a second)."""
    p = draw(st.sampled_from([3, 2]))
    n = draw(st.sampled_from([2, 3, 1]))
    ring = RingSpec.make(GF(p), ("x", "y", "z")[:n])
    top = draw(st.sampled_from({1: [6, 5, 4], 2: [3, 2], 3: [3, 2]}[n]))
    gens = [ring.monomial(m) for m in monomials_of_degree(ring, top)]
    monos = monomials_of_degree(ring, top - 1)
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(monos), max_size=len(monos)))
        gens.append(sum((ring.monomial(m, c) for m, c in zip(monos, coeffs)), ring.zero()))
    I = Ideal(ring, gens)
    assume(QuotientBasis(I).dimension <= (6 if p == 2 else 5))
    return I


def graded_algebras():
    return graded_ideals().map(FiniteAlgebra.from_ideal)


@settings(max_examples=40, deadline=None)
@given(graded_algebras())
def test_enumeration_matches_the_subspace_walk_on_random_graded_algebras(A):
    _same_lattice(A)


@settings(max_examples=30, deadline=None)
@given(graded_ideals())
def test_index_agrees_with_the_lattice_oracle_on_random_graded_ideals(I):
    """The paper's equality three independent ways: the socle dimension of
    R/I, the length of the inverse-system decomposition, and the literal
    minimum over the lattice of ideals of R/I, with plain and with graded
    irreducible members."""
    lattice = enumerate_ideals(FiniteAlgebra.from_ideal(I))
    r = index_of_reducibility(I)
    assert decompose(I, graded=True).r == r
    assert oracle_index(lattice, graded=False) == r
    assert oracle_index(lattice, graded=True) == r


@pytest.mark.parametrize(
    "field,names,gens,size",
    [
        (GF(3), ("x", "y"), ["x^3", "x*y^2", "y^3"], 50),
        (GF(2), ("x", "y"), ["x^3", "y^3"], 38),
        (GF(2), ("x", "y", "z"), ["x^2", "y^2", "z^2"], 47),
    ],
)
def test_lattices_past_the_old_subspace_cap_are_answered(field, names, gens, size):
    A = algebra(field, names, gens)
    # the walk over every subspace refused more than 200,000 of them
    assert subspace_count_estimate(A.quotient.dimension, field.characteristic) > 200_000
    rep = oracle_theorems(A)
    assert rep.ok, rep.failures
    assert rep.lattice_size == size
    with pytest.raises(CapExceeded, match="ideal enumeration"):
        enumerate_ideals(A, cap=100)
