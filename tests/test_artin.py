"""Artinian quotient structure: socles, indices, Hilbert data, radicals."""

import pytest

from gradix.artin import (
    QuotientBasis,
    certified_power_bound,
    dehomogenize_units,
    hilbert_function,
    minimal_polynomial,
    radical_maximal_certify,
    socle,
    socle_wrt,
)
from gradix.errors import NotGraded, NotZeroDimensional
from gradix.fields import GF, QQ
from gradix.groebner import Ideal, ideal_equal, intersect
from gradix.gxparser import parse_document, parse_poly
from gradix.poly import RingSpec, is_homogeneous
from gradix.reduc import graded_index, index_of_reducibility

from oracles import dense

R2 = RingSpec.make(QQ, ("x", "y"))
R3 = RingSpec.make(QQ, ("x", "y", "z"))


def P(s, ring=R2):
    return parse_poly(s, ring)


def mnm_ideal(ring=R2):
    return Ideal(ring, [P("x^2+x*y", ring), P("x^2-y^2", ring), P("y^3", ring)])


def test_quotient_basis_min_nonmonomial():
    Q = QuotientBasis(mnm_ideal())
    assert Q.dimension == 4
    assert Q.monomials == [(0, 0), (0, 1), (1, 0), (0, 2)]
    # multiplication matrices commute (exact)
    Mx, My = (dense(Q.action_matrix(Q.ring.var(v)), Q.dimension) for v in "xy")

    def matmul(A, B):
        n = len(A)
        return [
            [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    assert matmul(Mx, My) == matmul(My, Mx)


def test_certified_power_bound_of_a_deep_univariate_quotient():
    # the monomial walk is iterative: a chain of 1200 steps must not recurse
    R = RingSpec.make(GF(7), ("x",))
    Q = QuotientBasis(Ideal(R, [R.var("x") ** 1200]))
    assert certified_power_bound(Q) == 1200


def test_quotient_basis_errors():
    assert QuotientBasis(Ideal(R2, [P("x"), P("y")])).dimension == 1
    with pytest.raises(NotZeroDimensional):
        QuotientBasis(Ideal(R2, [P("x")]))


def socle_polys(Q):
    return [Q.to_poly(v) for v in socle(Q)]


def test_socle_min_nonmonomial():
    polys = socle_polys(QuotientBasis(mnm_ideal()))
    assert polys == [P("x+y"), P("y^2")]
    assert all(is_homogeneous(p) for p in polys)
    assert [p.total_degree() for p in polys] == [1, 2]
    # the second socle vector is the class of x^2 (x^2 = y^2 mod I)
    assert mnm_ideal().normal_form(P("x^2")) == P("y^2")


def test_socle_square_of_maximal():
    I = Ideal(R2, [P("x^2"), P("x*y"), P("y^2")])
    assert set(socle_polys(QuotientBasis(I))) == {P("x"), P("y")}


def test_socle_univariate():
    R1 = RingSpec.make(QQ, ("x",))
    I = Ideal(R1, [parse_poly("x^2", R1)])
    assert socle_polys(QuotientBasis(I)) == [parse_poly("x", R1)]


def test_graded_index_min_nonmonomial():
    assert graded_index(mnm_ideal()) == 2


def test_graded_index_x_cubed():
    R1 = RingSpec.make(QQ, ("x",))
    assert graded_index(Ideal(R1, [parse_poly("x^3", R1)])) == 1


def test_graded_index_requires_graded():
    with pytest.raises(NotGraded):
        graded_index(Ideal(R2, [P("x^2-x-y"), P("x*y+x+y")]))


def test_type_complete_intersection_gorenstein():
    assert index_of_reducibility(Ideal(R2, [P("x^2"), P("y^2")])) == 1


def test_type_square_of_maximal():
    assert index_of_reducibility(Ideal(R2, [P("x^2"), P("x*y"), P("y^2")])) == 2


def test_type_j1_gorenstein():
    J1 = Ideal(R2, [P("x^2-x-y"), P("x*y+x+y")])
    assert index_of_reducibility(J1) == 1


def test_hilbert_function_min_nonmonomial():
    assert hilbert_function(QuotientBasis(mnm_ideal())) == [(0, 1), (1, 2), (2, 1)]


def test_hilbert_function_point():
    assert hilbert_function(QuotientBasis(Ideal(R2, [P("x"), P("y")]))) == [(0, 1)]


def test_hilbert_function_sums_to_dimension():
    for gens in (["x^2", "y^3"], ["x^3", "x*y", "y^2"], ["x^2+x*y", "x^2-y^2", "y^3"]):
        Q = QuotientBasis(Ideal(R2, [P(g) for g in gens]))
        assert sum(v for _, v in hilbert_function(Q)) == Q.dimension


def test_hilbert_function_component_intersection():
    L1 = Ideal(R2, [P("x+y"), P("y^3")])
    L2 = Ideal(R2, [P("y"), P("x^2")])
    Q = QuotientBasis(intersect(L1, L2))
    assert hilbert_function(Q) == [(0, 1), (1, 2), (2, 1)]


def test_minimal_polynomial():
    Q = QuotientBasis(mnm_ideal())
    # x^2 = y^2, x^3 = x y^2 = -y^3 = 0 mod mnm_ideal: minimal polynomial x^3
    assert minimal_polynomial(Q, 0) == [0, 0, 0, 1]


def test_radical_star_gap_a():
    I = Ideal(
        R3,
        [
            P("x^3-y^3", R3),
            P("y^3-z^3", R3),
            P("x*y", R3),
            P("x*z", R3),
            P("y*z", R3),
            P("x^2-y^3", R3),
        ],
    )
    cert = radical_maximal_certify(I)
    assert cert.maximal
    assert cert.irrelevant
    vars_ideal = Ideal(R3, [R3.var("x"), R3.var("y"), R3.var("z")])
    assert ideal_equal(cert.radical, vars_ideal)


def test_radical_not_zero_dimensional():
    with pytest.raises(NotZeroDimensional):
        radical_maximal_certify(Ideal(R2, [P("x*y")]))


def test_radical_split_detected():
    R1 = RingSpec.make(QQ, ("x",))
    cert = radical_maximal_certify(Ideal(R1, [parse_poly("x^2-1", R1)]))
    assert not cert.maximal


def test_radical_irreducible_quadratic_is_field():
    R1 = RingSpec.make(QQ, ("x",))
    cert = radical_maximal_certify(Ideal(R1, [parse_poly("x^2-2", R1)]))
    assert cert.maximal
    assert cert.residue_dimension == 2
    assert not cert.irrelevant


def test_radical_gaussian_point_and_type():
    # (x^2+1, y): residue field of dimension 2 over QQ
    M = Ideal(R2, [P("x^2+1"), P("y")])
    cert = radical_maximal_certify(M)
    assert cert.maximal and cert.residue_dimension == 2
    # the square has type 2: socle is M/M^2, free of rank 2 over the residue field
    assert index_of_reducibility(M.product(M)) == 2


def test_radical_biquadratic_needs_primitive_search():
    # QQ[x,y]/(x^2-2, y^2-3) is the degree-4 field QQ(sqrt2, sqrt3); no
    # single variable is primitive, so the certifier must find a
    # combination (x+y works, with minimal polynomial T^4 - 10T^2 + 1)
    I = Ideal(R2, [P("x^2-2"), P("y^2-3")])
    cert = radical_maximal_certify(I)
    assert cert.maximal
    assert cert.residue_dimension == 4


def test_radical_biquadratic_split_detected():
    # QQ[x,y]/(x^2-2, y^2-2) contains (x-y)(x+y) = 0: not a field
    I = Ideal(R2, [P("x^2-2"), P("y^2-2")])
    cert = radical_maximal_certify(I)
    assert not cert.maximal


def test_radical_over_gf3_frobenius():
    ring = RingSpec.make(GF(3), ("x",))
    assert radical_maximal_certify(Ideal(ring, [parse_poly("x^2+1", ring)])).maximal
    assert not radical_maximal_certify(Ideal(ring, [parse_poly("x^2-1", ring)])).maximal
    # x^3 - x splits into three points over GF(3)
    assert not radical_maximal_certify(Ideal(ring, [parse_poly("x^3-x", ring)])).maximal


def test_radical_small_characteristic_power():
    # minimal polynomial x^3 over GF(3): derivative vanishes; contraction
    # still certifies the radical exactly
    ring = RingSpec.make(GF(3), ("x", "y"))
    I = Ideal(ring, [parse_poly("x^3", ring), parse_poly("y", ring)])
    cert = radical_maximal_certify(I)
    assert cert.maximal and cert.irrelevant


def test_index_gaussian():
    M = Ideal(R2, [P("x^2+1"), P("y")])
    II = M.product(M)
    # dim_k socle = 4, residue degree 2, so the index is 2
    assert index_of_reducibility(II) == 2
    cert = radical_maximal_certify(II)
    assert len(socle_wrt(QuotientBasis(II), cert.radical.gens)) == 4


def test_laurent_dehomogenization_laurent_point_star():
    ring, ideals, _ = parse_document(
        "ring QQ[x,y,t,t^-1] weights(0,1,1);\nideal Istar = x^2, y^2;"
    )
    Istar = ideals["Istar"]
    assert Istar.is_graded()
    # after t -> 1 the quotient is k[x,y]/(x^2,y^2), Gorenstein
    assert graded_index(Istar) == 1
    assert index_of_reducibility(dehomogenize_units(Istar)) == 1


def test_graded_index_matches_index_for_irrelevant_primary():
    # computational shadow of the graded/ungraded equivalence at the
    # irrelevant maximal ideal
    for gens in (["x^2", "y^3"], ["x^2", "x*y", "y^4"], ["x^3", "y^2", "x^2*y"]):
        I = Ideal(R2, [P(g) for g in gens])
        assert graded_index(I) == index_of_reducibility(I) == len(socle(QuotientBasis(I)))
