"""Polynomial arithmetic, gradings, monomial orders, substitution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix.errors import RingMismatch
from gradix.fields import GF, QQ
from gradix.gxparser import parse_poly
from gradix.poly import GrevLex, Lex, RingSpec, is_homogeneous

from oracles import substitute

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


def _by_degree(f):
    """The homogeneous parts of f, keyed by weighted degree."""
    parts = {}
    for m, c in f.terms.items():
        d = f.ring.weighted_degree(m)
        parts[d] = parts.get(d, f.ring.zero()) + f.ring.monomial(m, c)
    return parts


def test_weighted_degrees_standard_weights():
    parts = _by_degree(P("x^2-y^3"))
    assert set(parts) == {2, 3}
    assert parts[2] == P("x^2")
    assert parts[3] == P("-y^3")
    assert is_homogeneous(parts[2]) and is_homogeneous(parts[3])
    assert not is_homogeneous(P("x^2-y^3"))


def test_weighted_degrees_single():
    assert set(_by_degree(P("x^2+x*y"))) == {2}
    assert is_homogeneous(P("x^2+x*y"))


def test_weighted_degrees_zero_weight():
    ring = RingSpec.make(QQ, ("x", "y"), weights=(0, 1))
    parts = _by_degree(parse_poly("x-y", ring))
    assert set(parts) == {0, 1}
    assert parts[0] == parse_poly("x", ring)
    assert parts[1] == parse_poly("-y", ring)
    assert not is_homogeneous(parse_poly("x-y", ring))
    assert is_homogeneous(parse_poly("x^2-x", ring))  # x has weight 0


def test_is_homogeneous():
    assert is_homogeneous(P("x^2-y^2"))
    assert not is_homogeneous(P("x^2-x-y"))
    assert is_homogeneous(R2.zero())


def test_grevlex_keys():
    key = GrevLex(2).key
    assert key((2, 0)) > key((1, 1))  # x^2 > xy
    assert key((1, 1)) == key((1, 1))
    assert key((0, 3)) > key((1, 0))  # degree wins


def test_lex_keys():
    key = Lex(2).key
    assert key((1, 0)) > key((0, 3))  # x > y^3


def test_grevlex_tie_break():
    # x*z vs y^2 in three variables: same degree, last nonzero of u-v decides
    key = GrevLex(3).key
    xz = (1, 0, 1)
    y2 = (0, 2, 0)
    assert key(xz) < key(y2)  # standard grevlex: y^2 > xz


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
        key = order.key
        uw = tuple(a + b for a, b in zip(u, w))
        vw = tuple(a + b for a, b in zip(v, w))
        assert (key(u) < key(v), key(u) == key(v)) == (key(uw) < key(vw), key(uw) == key(vw))


coeffs = st.integers(-4, 4)
polys = st.lists(
    st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs), max_size=6
).map(lambda items: sum((R2.monomial(m, c) for m, c in items), R2.zero()))


@settings(max_examples=60)
@given(polys)
def test_components_reconstruct(f):
    parts = _by_degree(f)
    assert is_homogeneous(f) == (len(parts) <= 1)
    total = R2.zero()
    for d, c in parts.items():
        assert is_homogeneous(c)
        assert {R2.weighted_degree(m) for m in c.terms} == {d}
        total = total + c
    assert total == f


@settings(max_examples=60)
@given(polys, polys)
def test_graded_product_degree(f, g):
    fh = _by_degree(f)
    gh = _by_degree(g)
    if not fh or not gh:
        return
    df, cf = max(fh.items())
    dg, cg = max(gh.items())
    prod = cf * cg
    assert is_homogeneous(prod)
    assert all(R2.weighted_degree(m) == df + dg for m in prod.terms)
