"""Grammar fixtures: precedence, declarations, round-trips, errors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix.errors import ParseError
from gradix.fields import GF, QQ
from gradix.gxparser import parse_document, parse_poly, render
from gradix.poly import GrevLex, Lex, RingSpec

R2 = RingSpec.make(QQ, ("x", "y"))


# precedence fixture table: '-' looser than '*' looser than '^'
PRECEDENCE_FIXTURES = [
    ("1+2*3", R2.constant(7)),
    ("2*3^2", R2.constant(18)),
    ("-2^2", R2.constant(-4)),
    ("2-3-4", R2.constant(-5)),
    ("x-y*x", None),  # parsed shape checked below
    ("(x+y)^2", None),
]


def test_precedence_table():
    for text, expected in PRECEDENCE_FIXTURES:
        got = parse_poly(text, R2)
        if expected is not None:
            assert got == expected, text
    assert parse_poly("x-y*x", R2) == R2.var("x") - R2.var("y") * R2.var("x")
    assert parse_poly("(x+y)^2", R2) == parse_poly("x^2+2*x*y+y^2", R2)


def test_rational_literals():
    assert parse_poly("1/2*x", R2) == R2.var("x").scale(Fraction(1, 2))
    assert parse_poly("3/6", R2) == R2.constant(Fraction(1, 2))


def test_min_nonmonomial_document():
    ring, ideals, order = parse_document(
        "ring QQ[x,y] weights(1,1);\nideal I = x^2+x*y, x^2-y^2, y^3;"
    )
    assert ring.names == ("x", "y")
    assert ring.weights == (1, 1)
    assert set(ideals) == {"I"}
    gens = ideals["I"].gens
    assert gens == (parse_poly("x^2+x*y", ring), parse_poly("x^2-y^2", ring), parse_poly("y^3", ring))


def test_laurent_document():
    ring, ideals, _ = parse_document(
        "ring QQ[x,y,t,t^-1] weights(0,1,1);\nideal I = x-y, t-1, x^2;"
    )
    assert ring.names == ("x", "y", "t")
    assert ring.invertible == (False, False, True)
    assert ring.pres_names == ("x", "y", "t", "t^-1")
    assert ring.pres_weights == (0, 1, 1, -1)
    assert len(ideals["I"].gens) == 3
    # the Laurent relation is adjoined automatically
    assert len(ideals["I"].basis_gens) == 4


def test_gf_ring_no_ideals():
    ring, ideals, _ = parse_document("ring GF(3)[x];")
    assert ring.field == GF(3)
    assert ideals == {}


def test_negative_laurent_exponent():
    ring, _, _ = parse_document("ring QQ[t,t^-1] weights(1);")
    f = parse_poly("t^-2+t", ring)
    assert f.terms == {(0, 2): Fraction(1), (1, 0): Fraction(1)}
    with pytest.raises(ParseError):
        parse_poly("t^-2", RingSpec.make(QQ, ("t",)))


@pytest.mark.parametrize("name, cls", [("lex", Lex), ("grevlex", GrevLex)])
def test_order_directive(name, cls):
    ring, _, order = parse_document(f"ring QQ[x,y];\norder {name};\nideal I = x^2, y;")
    assert type(order) is cls
    assert order.nvars == ring.npres


def test_unknown_order_is_refused_at_its_position():
    with pytest.raises(ParseError, match="unknown order 'deglex'") as exc:
        parse_document("ring QQ[x];\norder deglex;")
    assert (exc.value.line, exc.value.column) == (2, 7)


def test_negative_power_of_a_companion_variable():
    ring, _, _ = parse_document("ring QQ[t,t^-1] weights(1);")
    assert parse_poly("(t^-1)^-2", ring) == parse_poly("t^2", ring)


def test_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_document("ring QQ[x,y];\nideal I = x + ;")
    assert exc.value.line == 2
    with pytest.raises(ParseError, match="unknown variable"):
        parse_document("ring QQ[x];\nideal I = x*z;")
    with pytest.raises(ParseError, match="duplicate ideal"):
        parse_document("ring QQ[x]; ideal I = x; ideal I = x^2;")
    with pytest.raises(ParseError, match="not prime"):
        parse_document("ring GF(6)[x];")


def test_render_basics():
    assert render(parse_poly("x^2+x*y", R2)) == "x^2+x*y"
    assert render(R2.zero()) == "0"
    assert render(parse_poly("-x+1/2", R2)) == "-x+1/2"


def test_render_star_gap_star_generators_round_trip():
    ring = RingSpec.make(QQ, ("x", "y", "z"))
    for s in ["x^3-y^3", "y^3-z^3", "x*y", "x*z", "y*z"]:
        f = parse_poly(s, ring)
        assert parse_poly(render(f), ring) == f


def test_render_laurent_round_trip():
    ring, _, _ = parse_document("ring QQ[t,t^-1] weights(1);")
    f = parse_poly("3*t^-2+t-1", ring)
    assert parse_poly(render(f), ring) == f


def test_render_mixed_laurent_monomial_is_faithful():
    # parsing does not reduce modulo the unit relation: t*t^-1 stays the
    # presentation monomial with both exponents, and rendering round-trips it
    ring, _, _ = parse_document("ring QQ[t,t^-1] weights(1);")
    f = parse_poly("t^2*t^-1", ring)
    assert f.terms == {(2, 1): Fraction(1)}
    assert parse_poly(render(f), ring) == f


names3 = ("x", "y", "z")
RG = RingSpec.make(GF(5), names3)


@st.composite
def random_poly(draw, ring):
    n = ring.npres
    items = draw(
        st.lists(
            st.tuples(
                st.tuples(*(st.integers(0, 4) for _ in range(n))),
                st.integers(-9, 9),
            ),
            max_size=7,
        )
    )
    f = ring.zero()
    for m, c in items:
        f = f + ring.monomial(m, ring.field.from_int(c) if ring.field.kind == "GF" else c)
    return f


@settings(max_examples=80)
@given(random_poly(R2))
def test_round_trip_qq(f):
    assert parse_poly(render(f), R2) == f


@settings(max_examples=80)
@given(random_poly(RG))
def test_round_trip_gf5(f):
    assert parse_poly(render(f), RG) == f
