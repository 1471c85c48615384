"""Polynomial arithmetic, gradings, monomial orders, substitution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix.errors import RingMismatch
from gradix.fields import GF, QQ
from gradix.gxparser import parse_poly
from gradix.poly import (
    GrevLex,
    Lex,
    RingSpec,
    compare_monomials,
    homogeneous_components,
    is_homogeneous,
    substitute,
    weighted_degree,
)

R2 = RingSpec.make(QQ, ("x", "y"))


def P(s, ring=R2):
    return parse_poly(s, ring)


def test_product_difference_of_squares():
    assert P("x+y") * P("x-y") == P("x^2-y^2")


def test_subtraction_hand_expanded():
    # (x^2+xy) - (x^2-y^2) = xy + y^2, checked by independent expansion
    assert P("x^2+x*y") - P("x^2-y^2") == P("x*y+y^2")


def test_additive_identity():
    f = P("3*x^2-1/2*y")
    assert f + R2.zero() == f


def test_ring_mismatch_rejected():
    other = RingSpec.make(GF(3), ("x", "y"))
    with pytest.raises(RingMismatch):
        P("x") + parse_poly("x", other)


def test_homogeneous_components_standard_weights():
    comps = homogeneous_components(P("x^2-y^3"))
    assert set(comps) == {2, 3}
    assert comps[2] == P("x^2")
    assert comps[3] == P("-y^3")
    assert comps[2] + comps[3] == P("x^2-y^3")


def test_homogeneous_components_single():
    comps = homogeneous_components(P("x^2+x*y"))
    assert set(comps) == {2}


def test_homogeneous_components_zero_weight():
    ring = RingSpec.make(QQ, ("x", "y"), weights=(0, 1))
    comps = homogeneous_components(parse_poly("x-y", ring))
    assert set(comps) == {0, 1}
    assert comps[0] == parse_poly("x", ring)
    assert comps[1] == parse_poly("-y", ring)


def test_is_homogeneous():
    assert is_homogeneous(P("x^2-y^2"))
    assert not is_homogeneous(P("x^2-x-y"))
    assert is_homogeneous(R2.zero())


def test_compare_monomials_grevlex():
    o = GrevLex(2)
    assert compare_monomials((2, 0), (1, 1), o) == 1  # x^2 > xy
    assert compare_monomials((1, 1), (1, 1), o) == 0
    assert compare_monomials((0, 3), (1, 0), o) == 1  # degree wins


def test_compare_monomials_lex():
    o = Lex(2)
    assert compare_monomials((1, 0), (0, 3), o) == 1  # x > y^3


def test_grevlex_tie_break():
    # x*z vs y^2 in three variables: same degree, last nonzero of u-v decides
    o = GrevLex(3)
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    assert compare_monomials(xz, y2, o) == -1  # standard grevlex: y^2 > xz


def test_substitute_cusp_relation():
    target = RingSpec.make(QQ, ("t",))
    t = target.var("t")
    image = substitute(P("x^3-y^2"), {"x": t**2, "y": t**3})
    assert image.is_zero()


def test_substitute_identity():
    f = P("x^2-3*y+1")
    assert substitute(f, {"x": R2.var("x"), "y": R2.var("y")}) == f


def test_substitute_moh_style_map():
    target = RingSpec.make(QQ, ("t",))
    t = target.var("t")
    image = substitute(P("x"), {"x": t**6 + t**31, "y": target.zero()})
    assert image == parse_poly("t^6+t^31", target)


mono = st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))


@given(mono, mono, mono)
def test_order_multiplicativity(u, v, w):
    for order in (GrevLex(3), Lex(3)):
        c = compare_monomials(u, v, order)
        uw = tuple(a + b for a, b in zip(u, w))
        vw = tuple(a + b for a, b in zip(v, w))
        assert compare_monomials(uw, vw, order) == c


coeffs = st.integers(-4, 4)
polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs), max_size=6
).map(lambda items: sum((R2.monomial(m, c) for m, c in items), R2.zero()))


@settings(max_examples=60)
@given(polys)
def test_components_reconstruct(f):
    comps = homogeneous_components(f)
    total = R2.zero()
    for d, c in comps.items():
        assert is_homogeneous(c)
        assert weighted_degree(c) == d
        total = total + c
    assert total == f


@settings(max_examples=60)
@given(polys, polys)
def test_graded_product_degree(f, g):
    fh = homogeneous_components(f)
    gh = homogeneous_components(g)
    if not fh or not gh:
        return
    df, cf = max(fh.items())
    dg, cg = max(gh.items())
    prod = cf * cg
    if not prod.is_zero():
        assert weighted_degree(prod) == df + dg
