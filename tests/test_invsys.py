"""Inverse systems: dual generators, annihilators, decompositions."""

import glob
import os
import random

import pytest

from gradix.artin import QuotientBasis, socle
from gradix.corpus import corpus
from gradix.errors import NotIrrelevantPrimary, ScopeError
from gradix.fields import GF, QQ
from gradix.groebner import Ideal, ideal_equal, intersect, intersect_many
from gradix.gxparser import parse_file, parse_poly
from gradix.invsys import decompose, inverse_system, verify_decomposition
from gradix.poly import RingSpec, is_homogeneous

from oracles import (
    DualPoly,
    NotMonomial,
    annihilator,
    contract,
    dual_generators,
    monomial_split,
    monomials_of_degree,
)

R2 = RingSpec.make(QQ, ("x", "y"))


def P(s, ring=R2):
    return parse_poly(s, ring)


def mnm_ideal(ring=R2):
    return Ideal(ring, [P("x^2+x*y", ring), P("x^2-y^2", ring), P("y^3", ring)])


def D(ring, terms):
    return DualPoly(ring, {m: ring.field.from_int(c) for m, c in terms.items()})


def test_contraction_pairing():
    F = D(R2, {(2, 0): 1, (1, 1): -1, (0, 2): 1})  # X^2 - XY + Y^2
    assert contract(P("x"), F) == D(R2, {(1, 0): 1, (0, 1): -1})  # X - Y
    assert contract(P("x+y"), F).is_zero()
    assert contract(P("x^2"), F) == D(R2, {(0, 0): 1})


def test_inverse_system_square_of_maximal():
    inv = inverse_system(Ideal(R2, [P("x^2"), P("x*y"), P("y^2")]))
    assert len(inv.generator_coords) == 2
    assert set(dual_generators(inv)) == {D(R2, {(1, 0): 1}), D(R2, {(0, 1): 1})}  # {X, Y}


def test_inverse_system_min_nonmonomial():
    inv = inverse_system(mnm_ideal())
    assert len(inv.generator_coords) == 2  # socle dimension
    generators = dual_generators(inv)
    degs = sorted(f.degree() for f in generators)
    assert degs == [1, 2]
    top = next(f for f in generators if f.degree() == 2)
    assert top == D(R2, {(2, 0): 1, (1, 1): -1, (0, 2): 1})  # X^2 - XY + Y^2


def test_inverse_system_maximal_ideal():
    inv = inverse_system(Ideal(R2, [P("x"), P("y")]))
    assert len(inv.generator_coords) == 1
    assert dual_generators(inv)[0] == D(R2, {(0, 0): 1})  # the constant 1


def test_inverse_system_scope():
    with pytest.raises(NotIrrelevantPrimary):
        inverse_system(Ideal(R2, [P("x^2-1"), P("y")]))


def test_annihilator_examples():
    # Ann(X) = (y, x^2), derived from the pairing table
    assert ideal_equal(annihilator(D(R2, {(1, 0): 1}), R2), Ideal(R2, [P("y"), P("x^2")]))
    # Ann(XY) = (x^2, y^2): the classic Gorenstein point
    assert ideal_equal(
        annihilator(D(R2, {(1, 1): 1}), R2), Ideal(R2, [P("x^2"), P("y^2")])
    )
    # Ann(1) = (x, y)
    assert ideal_equal(annihilator(D(R2, {(0, 0): 1}), R2), Ideal(R2, [P("x"), P("y")]))


def test_annihilator_of_min_nonmonomial_top_generator():
    F = D(R2, {(2, 0): 1, (1, 1): -1, (0, 2): 1})
    assert ideal_equal(annihilator(F, R2), Ideal(R2, [P("x+y"), P("y^3")]))


def test_decompose_min_nonmonomial_graded():
    rep = decompose(mnm_ideal(), graded=True)
    assert rep.r == 2
    assert rep.irredundant
    assert rep.all_graded
    assert rep.all_irreducible_certified
    target = Ideal(R2, [P("x+y"), P("y^3")])
    assert any(ideal_equal(c, target) for c in rep.components)
    # real intersection cross-check (independent of the coordinate path)
    assert ideal_equal(intersect_many(rep.components), mnm_ideal())


def test_decompose_min_nonmonomial_gf5():
    ring = RingSpec.make(GF(5), ("x", "y"))
    rep = decompose(mnm_ideal(ring), graded=True)
    assert rep.r == 2
    target = Ideal(ring, [P("x+y", ring), P("y^3", ring)])
    assert any(ideal_equal(c, target) for c in rep.components)


def test_decompose_square_of_maximal():
    rep = decompose(Ideal(R2, [P("x^2"), P("x*y"), P("y^2")]), graded=True)
    pair = {tuple(sorted(str(g) for g in c.groebner_basis())) for c in rep.components}
    expected = {
        tuple(sorted(str(g) for g in Ideal(R2, [P("x^2"), P("y")]).groebner_basis())),
        tuple(sorted(str(g) for g in Ideal(R2, [P("x"), P("y^2")]).groebner_basis())),
    }
    assert rep.r == 2
    assert pair == expected


def test_decompose_already_irreducible():
    rep = decompose(Ideal(R2, [P("x^2"), P("y")]), graded=True)
    assert rep.r == 1
    assert ideal_equal(rep.components[0], Ideal(R2, [P("x^2"), P("y")]))


def test_decompose_nongraded_input():
    # J1 is (x,y)-primary but not graded; decomposition still works ungraded
    J1 = Ideal(R2, [P("x^2-x-y"), P("x*y+x+y")])
    rep = decompose(J1, graded=False)
    assert rep.r == 1
    assert ideal_equal(rep.components[0], J1)


def test_verify_decomposition_min_nonmonomial():
    J1 = Ideal(R2, [P("x^2-x-y"), P("x*y+x+y")])
    J2 = Ideal(R2, [P("x^2+x+y"), P("x*y-x-y")])
    res = verify_decomposition(mnm_ideal(), [J1, J2])
    assert res.valid and res.irredundant


def test_verify_decomposition_graded_pair():
    res = verify_decomposition(
        mnm_ideal(), [Ideal(R2, [P("x+y"), P("y^3")]), Ideal(R2, [P("x^2"), P("y")])]
    )
    assert res.valid and res.irredundant


def test_verify_decomposition_rejects_bad_family_member():
    # b = -1 is excluded: (x+y, y^3) cap (x+y, y^2) != the ideal
    bad = Ideal(R2, [P("x+y"), P("y^2")])
    res = verify_decomposition(mnm_ideal(), [Ideal(R2, [P("x+y"), P("y^3")]), bad])
    assert not res.valid
    assert "intersection" in res.reason


def test_monomial_split():
    I = Ideal(R2, [P("x^2"), P("x*y"), P("y^3")])
    out = monomial_split(I)
    assert out is not None
    A, B = out
    assert ideal_equal(intersect(A, B), I)
    assert ideal_equal(A, Ideal(R2, [P("x"), P("y^3")]))
    assert ideal_equal(B, Ideal(R2, [P("x^2"), P("y")]))


def test_monomial_split_none_and_errors():
    assert monomial_split(Ideal(R2, [P("x^2"), P("y^2")])) is None
    xy = monomial_split(Ideal(R2, [P("x*y")]))
    assert xy is not None
    A, B = xy
    assert ideal_equal(A, Ideal(R2, [P("x")]))
    assert ideal_equal(B, Ideal(R2, [P("y")]))
    with pytest.raises(NotMonomial):
        monomial_split(Ideal(R2, [P("x+y")]))


def _random_m_primary(ring, rng, max_exp=3, extra=2, max_deg=3):
    gens = [ring.var(n) ** rng.randint(1, max_exp) for n in ring.names]
    for _ in range(rng.randint(0, extra)):
        d = rng.randint(1, max_deg)
        f = ring.zero()
        for m in monomials_of_degree(ring, d):
            f = f + ring.monomial(m, ring.field.from_int(rng.randint(0, 4)))
        gens.append(f)
    return Ideal(ring, gens)


def test_duality_round_trip_random():
    """Ann of the inverse system returns the ideal (exact ideal equality,
    via the honest annihilator path on every dual generator)."""
    rng = random.Random(2024)
    ring = RingSpec.make(GF(5), ("x", "y"))
    for _ in range(6):
        I = _random_m_primary(ring, rng)
        inv = inverse_system(I)
        anns = [annihilator(F, ring) for F in dual_generators(inv)]
        assert ideal_equal(intersect_many(anns), I)
        assert len(inv.generator_coords) == len(socle(QuotientBasis(I)))


def test_decompose_component_count_matches_socle():
    rng = random.Random(99)
    ring = RingSpec.make(GF(3), ("x", "y"))
    for _ in range(6):
        I = _random_m_primary(ring, rng)
        rep = decompose(I, graded=I.is_graded())
        assert rep.r == len(socle(QuotientBasis(I)))
        assert rep.irredundant
        assert rep.all_irreducible_certified
        if I.is_graded():
            assert rep.all_graded
            for c in rep.components:
                assert all(is_homogeneous(g) for g in c.groebner_basis())


def test_every_component_is_the_annihilator_of_its_dual_generator():
    """The t-th component of `decompose(I)`, a kernel in R/I coordinates,
    equals Ann(F_t) of the t-th dual generator written out as a dual
    polynomial, for every in-scope fixture ideal and two corpus samples."""
    ideals = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "fixtures", "*.gx"))):
        ideals.extend(parse_file(path)[1].values())
    ideals += corpus(seed=8150, count=40, field=GF(32003), nvars_options=(2, 3))
    ideals += corpus(seed=3, count=30, field=QQ, nvars_options=(2, 3))
    seen = 0
    for I in ideals:
        try:
            inv = inverse_system(I)
        except ScopeError:
            continue
        components = decompose(I).components
        generators = dual_generators(inv)
        assert len(components) == len(generators)
        for t, (J, F) in enumerate(zip(components, generators)):
            assert ideal_equal(J, annihilator(F, I.ring)), (str(I.ring), I.gens, t)
            seen += 1
    assert seen >= 120
