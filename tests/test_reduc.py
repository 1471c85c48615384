"""Indices of reducibility, star comparisons, the equivalence harness."""

import time

import pytest

from gradix.corpus import corpus
from gradix.errors import ContainmentFailure, NotGraded
from gradix.fields import GF, QQ
from gradix.groebner import Ideal, ideal_equal
from gradix.gxparser import parse_document, parse_poly
from gradix.poly import RingSpec
from gradix.reduc import (
    compare_star,
    decompose_report,
    graded_index,
    index_of_reducibility,
    index_of_star,
    is_graded_irreducible,
    is_irreducible,
    local_min_generators,
    verify_equivalence,
)

R2 = RingSpec.make(QQ, ("x", "y"))
R3 = RingSpec.make(QQ, ("x", "y", "z"))


def P(s, ring=R2):
    return parse_poly(s, ring)


def mnm_ideal(ring=R2):
    return Ideal(ring, [P("x^2+x*y", ring), P("x^2-y^2", ring), P("y^3", ring)])


def test_index_of_a_deep_univariate_power_within_budget():
    # minimal polynomials keep each stored power's pivot and the socle of
    # an irrelevant-primary ideal is read off the columns; x^3000 used to
    # run for minutes
    R = RingSpec.make(GF(7), ("x",))
    started = time.perf_counter()
    assert index_of_reducibility(Ideal(R, [R.var("x") ** 3000])) == 1
    assert time.perf_counter() - started < 60.0


def star_gap(which):
    if which == 1:
        gens = ["x^3-y^3", "y^3-z^3", "x*y", "x*z", "y*z"]
        extra = "x^2-y^3"
    else:
        gens = ["z^3", "y^3", "x^3*y^2", "x^5*y", "x^7"]
        extra = "x^3+x*y"
    Istar = Ideal(R3, [P(s, R3) for s in gens])
    I = Ideal(R3, [P(s, R3) for s in gens] + [P(extra, R3)])
    return I, Istar


def laurent_point_doc():
    ring, ideals, _ = parse_document(
        "ring QQ[x,y,t,t^-1] weights(0,1,1);\nideal I = x-y, t-1, x^2;"
    )
    return ring, ideals["I"]


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_index_min_nonmonomial(field):
    ring = RingSpec.make(field, ("x", "y"))
    assert index_of_reducibility(mnm_ideal(ring)) == 2
    assert graded_index(mnm_ideal(ring)) == 2


def test_index_star_gap_a():
    I, _ = star_gap(1)
    assert index_of_reducibility(I) == 3


def test_index_maximal():
    assert index_of_reducibility(Ideal(R2, [P("x"), P("y")])) == 1


def test_graded_index_simple():
    assert graded_index(Ideal(R2, [P("x^2"), P("y")])) == 1


def test_graded_index_laurent_point_printed_star():
    ring, _ = laurent_point_doc()
    printed = Ideal(ring, [parse_poly("x^2", ring), parse_poly("y^2", ring)])
    assert graded_index(printed) == 1


def test_is_irreducible():
    J1 = Ideal(R2, [P("x^2-x-y"), P("x*y+x+y")])
    assert is_irreducible(J1).irreducible is True
    assert is_irreducible(mnm_ideal()).irreducible is False
    v = is_irreducible(Ideal(R2, [P("x+y^2")]))
    assert v.irreducible is None and "uncertified" in v.reason


def test_is_graded_irreducible():
    assert is_graded_irreducible(Ideal(R2, [P("x+y"), P("y^3")])).irreducible is True
    assert is_graded_irreducible(mnm_ideal()).irreducible is False
    assert is_graded_irreducible(Ideal(R2, [P("x"), P("y")])).irreducible is True
    with pytest.raises(NotGraded):
        is_graded_irreducible(Ideal(R2, [P("x^2-x-y")]))


def test_decompose_report_min_nonmonomial():
    rep = decompose_report(mnm_ideal(), graded=True)
    assert rep.r == 2 and rep.r_graded == 2
    target = Ideal(R2, [P("x+y"), P("y^3")])
    assert any(ideal_equal(c, target) for c in rep.components)
    assert rep.irredundant and rep.all_graded and rep.all_irreducible_certified


def test_decompose_report_cube_of_maximal():
    m3 = Ideal(R2, [P("x^3"), P("x^2*y"), P("x*y^2"), P("y^3")])
    rep = decompose_report(m3, graded=True)
    assert rep.r == 3  # socle of k[x,y]/m^3 is spanned by the three quadrics


def test_decompose_report_irreducible_case():
    rep = decompose_report(Ideal(R2, [P("x^2"), P("y")]), graded=True)
    assert rep.r == 1 and rep.r_graded == 1


def test_index_of_star_star_gap_b():
    I, Istar = star_gap(2)
    assert index_of_star(I) == 3


def test_index_of_star_star_gap_a_true_value():
    # the adjoined element degenerates: x*(x^2-y^3) = x^3 mod the monomial
    # part, so x^2, y^3, z^3 all fall in the ideal and it is graded; its
    # largest graded subideal is itself, with index 3 (not the printed 1)
    I, _ = star_gap(1)
    assert I.is_graded()
    assert index_of_star(I) == 3


def test_index_of_star_laurent_point():
    _, I = laurent_point_doc()
    assert index_of_star(I) == 1


def test_compare_star_star_gap_b():
    I, _ = star_gap(2)
    cmp = compare_star(I)
    assert cmp.r == 1 and cmp.r_star == 3
    assert cmp.quotient_principal  # one adjoined generator
    assert cmp.radical_graded  # the radical (x,y,z) is graded
    assert not cmp.hypothesis_met  # so the principal-quotient statement is silent
    assert not cmp.conclusion_holds


def test_compare_star_laurent_point():
    _, I = laurent_point_doc()
    cmp = compare_star(I)
    assert cmp.r == 1 and cmp.r_star == 1
    # the quotient is principal (t-1 generates it), and the radical is a
    # non-graded maximal ideal: the hypothesis is met and the conclusion holds
    assert cmp.quotient_generator_count == 1
    assert cmp.hypothesis_met
    assert cmp.conclusion_holds


def test_compare_star_graded_trivial():
    cmp = compare_star(mnm_ideal())
    assert cmp.r == cmp.r_star == 2
    assert cmp.quotient_generator_count == 0
    assert not cmp.hypothesis_met


def test_local_min_generators():
    m = Ideal(R2, [P("x"), P("y")])
    assert local_min_generators(m, m) == 2
    m2 = Ideal(R2, [P("x^2"), P("x*y"), P("y^2")])
    assert local_min_generators(m2, m) == 3
    with pytest.raises(ContainmentFailure):
        local_min_generators(Ideal(R2, [P("x-1")]), m)


def test_local_min_generators_gaussian_residue():
    # at (x^2+1, y) over QQ the residue field has degree 2
    at = Ideal(R2, [P("x^2+1"), P("y")])
    assert local_min_generators(at, at) == 2


def test_index_of_star_nonzerodivisor_independence():
    # two different certified homogeneous nonzerodivisors give the same
    # dehomogenized index
    from gradix.artin import local_socle_dimension
    from gradix.groebner import quotient as colon
    from gradix.star import star_lambda

    ring, I = laurent_point_doc()
    S = star_lambda(I).ideal
    results = []
    for ell_text in ("t", "y+t"):
        ell = parse_poly(ell_text, ring)
        assert ideal_equal(colon(S, ell), S)  # certified nonzerodivisor
        dehom = Ideal(ring, list(S.gens) + [ell - ring.one()])
        results.append(local_socle_dimension(dehom))
    assert results[0] == results[1] == index_of_star(I)


def test_verify_equivalence_min_nonmonomial():
    rep = verify_equivalence([mnm_ideal()])
    assert rep.total == 1 and rep.passed == 1 and rep.ok


def test_verify_equivalence_empty():
    rep = verify_equivalence([])
    assert rep.total == 0 and rep.ok


def test_verify_equivalence_small_corpus():
    ideals = corpus(seed=42, count=10)
    rep = verify_equivalence(ideals)
    assert rep.total == 10
    assert rep.ok, rep.failures
