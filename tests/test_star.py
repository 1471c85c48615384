"""Largest graded subideal: truncated and lambda methods, cross-checks."""

import random

import pytest

from gradix.errors import MissingBound, NotPositivelyGraded
from gradix.fields import GF, QQ
from gradix.groebner import Ideal, ideal_equal
from gradix.gxparser import parse_document, parse_poly
from gradix.poly import RingSpec, is_homogeneous
from gradix.star import (
    BOUNDED,
    CERTIFIED,
    CERTIFIED_LAMBDA,
    star,
    star_lambda,
    star_truncated,
)

R2 = RingSpec.make(QQ, ("x", "y"))
R3 = RingSpec.make(QQ, ("x", "y", "z"))


def P(s, ring=R2):
    return parse_poly(s, ring)


def star_gap_a_pair():
    gens = ["x^3-y^3", "y^3-z^3", "x*y", "x*z", "y*z"]
    Istar = Ideal(R3, [P(s, R3) for s in gens])
    I = Ideal(R3, [P(s, R3) for s in gens] + [P("x^2-y^3", R3)])
    return I, Istar


def star_gap_b_pair():
    gens = ["z^3", "y^3", "x^3*y^2", "x^5*y", "x^7"]
    Istar = Ideal(R3, [P(s, R3) for s in gens])
    I = Ideal(R3, [P(s, R3) for s in gens] + [P("x^3+x*y", R3)])
    return I, Istar


def test_star_star_gap_a_degenerates_to_graded():
    # x*(x^2-y^3) = x^3 - x*y^3 = x^3 mod the quadratic monomials, and
    # x^3 - y^3 is a generator, so y^3 (hence x^2 and z^3) fall into the
    # ideal: it is graded and equals its own largest graded subideal,
    # strictly containing the listed reference value
    I, Istar = star_gap_a_pair()
    assert I.is_graded()
    res = star(I)
    assert res.certificate == CERTIFIED
    assert ideal_equal(res.ideal, I)
    assert not ideal_equal(res.ideal, Istar)
    assert all(I.contains(g) for g in Istar.gens)


def test_star_star_gap_b():
    I, Istar = star_gap_b_pair()
    res = star(I)
    assert res.certificate == CERTIFIED
    assert ideal_equal(res.ideal, Istar)


def test_star_graded_fixed_point():
    mnm_ideal = Ideal(R2, [P("x^2+x*y"), P("x^2-y^2"), P("y^3")])
    res = star(mnm_ideal)
    assert res.method == "identity"
    assert ideal_equal(res.ideal, mnm_ideal)
    lam = star_lambda(mnm_ideal)
    assert ideal_equal(lam.ideal, mnm_ideal)
    tr = star_truncated(mnm_ideal)
    assert ideal_equal(tr.ideal, mnm_ideal)


def test_star_no_homogeneous_multiples():
    I = Ideal(R2, [P("x+y^2")])
    tr = star_truncated(I, bound=10)
    assert tr.certificate == BOUNDED and tr.bound == 10
    assert not tr.ideal.groebner_basis()
    lam = star_lambda(I)
    assert not lam.ideal.groebner_basis()
    res = star(I)  # runs the internal cross-check
    assert not res.ideal.groebner_basis()
    assert res.certificate == CERTIFIED_LAMBDA


def test_star_truncated_needs_bound_for_nonprimary():
    with pytest.raises(MissingBound):
        star_truncated(Ideal(R2, [P("x+y^2")]))


def test_star_truncated_rejects_laurent():
    ring, ideals, _ = parse_document(
        "ring QQ[x,y,t,t^-1] weights(0,1,1);\nideal I = x-y, t-1, x^2;"
    )
    with pytest.raises(NotPositivelyGraded):
        star_truncated(ideals["I"])


def test_star_truncated_monotone_in_bound():
    I = Ideal(R2, [P("x+y^2")])
    J = Ideal(R2, [P("x^2+y^3"), P("x*y-y^3+x^3")])
    for ideal in (I, J):
        prev = None
        for b in (2, 4, 6, 8):
            cur = star_truncated(ideal, bound=b).ideal
            if prev is not None:
                assert all(cur.contains(g) for g in prev.groebner_basis())
            prev = cur


def test_star_laurent_point_laurent_true_value():
    """The homogeneous element x*t - y = x*(t-1) + (x-y) lies in the ideal,
    so the largest graded subideal strictly contains (x^2, y^2)."""
    ring, ideals, _ = parse_document(
        "ring QQ[x,y,t,t^-1] weights(0,1,1);\nideal I = x-y, t-1, x^2;"
    )
    I = ideals["I"]
    witness = parse_poly("x*t-y", ring)
    # irrefutable identity: x*t - y = 1*(x-y) + x*(t-1)
    assert witness == parse_poly("x-y", ring) + parse_poly("x", ring) * parse_poly(
        "t-1", ring
    )
    assert is_homogeneous(witness)
    assert I.contains(witness)
    res = star_lambda(I)
    assert res.certificate == CERTIFIED_LAMBDA
    assert res.ideal.contains(witness)
    assert res.ideal.contains(parse_poly("x^2", ring))
    assert res.ideal.contains(parse_poly("y^2", ring))
    expected = Ideal(ring, [parse_poly("x^2", ring), witness])
    assert ideal_equal(res.ideal, expected)
    # and it strictly exceeds (x^2, y^2): the witness is not in that ideal
    small = Ideal(ring, [parse_poly("x^2", ring), parse_poly("y^2", ring)])
    assert not small.contains(witness)
    assert not ideal_equal(res.ideal, small)


def test_star_methods_agree_on_random_primary():
    rng = random.Random(5)
    ring = RingSpec.make(GF(5), ("x", "y"))
    for _ in range(5):
        gens = [
            ring.var("x") ** rng.randint(1, 3),
            ring.var("y") ** rng.randint(1, 3),
        ]
        f = ring.zero()
        for m in ((2, 0), (1, 1), (0, 2)):
            f = f + ring.monomial(m, rng.randint(0, 4))
        f = f + ring.monomial((1, 0), rng.randint(0, 4))
        if not f.is_zero():
            gens.append(f)
        I = Ideal(ring, gens)
        tr = star_truncated(I)
        lam = star_lambda(I)
        assert ideal_equal(tr.ideal, lam.ideal)
        assert lam.finite_field_caveat


def test_star_invariants_always_hold():
    for I, _ in (star_gap_a_pair(), star_gap_b_pair()):
        res = star(I)
        for g in res.ideal.groebner_basis():
            assert is_homogeneous(g)
            assert I.contains(g)


def test_star_lambda_random_laurent_ideals():
    # invariants hold on random Laurent inputs with a zero-weight variable:
    # the result is graded, inside the ideal, and contains every
    # homogeneous element the probe finds by direct membership
    rng = random.Random(17)
    ring, _, _ = parse_document("ring QQ[x,y,t,t^-1] weights(0,1,1);")
    for _ in range(5):
        gens = []
        for _ in range(rng.randint(1, 3)):
            f = ring.zero()
            for _ in range(rng.randint(1, 3)):
                m = (rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1), 0)
                f = f + ring.monomial(m, rng.randint(-2, 2))
            if not f.is_zero():
                gens.append(f)
        I = Ideal(ring, gens)
        res = star_lambda(I)
        for g in res.ideal.groebner_basis():
            assert is_homogeneous(g)
            assert I.contains(g)
        # graded inputs are fixed points of the lambda method too
        if I.is_graded():
            assert ideal_equal(res.ideal, I)
