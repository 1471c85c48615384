"""Differential tests of the quotient-algebra engine: action matrices,
products, powers, monomial normal forms and minimal polynomials walked
through `QuotientBasis.columns` must equal the reference that multiplies
out polynomials and reduces them naively (`tests/oracles.py`), and the
index read off the columns must equal the socle of the radical's action
matrices (`socle_wrt`), and so must `reduc.graded_index` of a graded
ideal.  R/J built from a subspace
J/I of R/I (`overideal.quotient_of_subspace`) must equal R/J built from a
Groebner basis of J."""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradix.artin import (
    QuotientBasis,
    minimal_polynomial,
    radical_maximal_certify,
    residue_socle_dimension,
    socle_wrt,
)
from gradix.errors import GradixError, NotZeroDimensional, RadicalNotMaximal, ScopeError
from gradix.fields import GF, QQ
from gradix.groebner import Ideal
from gradix.gxparser import parse_file
from gradix.invsys import decompose
from gradix.linalg import Span
from gradix.overideal import over_ideal_certificate, quotient_of_subspace
from gradix.poly import GrevLex, Lex, RingSpec, is_homogeneous
from gradix.reduc import graded_index

from oracles import (
    dense,
    quotient_reference_basis,
    ref_action_matrix,
    ref_coords,
    ref_element_power,
    ref_minimal_polynomial,
    ref_multiply,
)

FIX = os.path.join(os.path.dirname(__file__), "fixtures")
ORDERS = {"grevlex": GrevLex, "lex": Lex}


def _random_vec(Q, rng):
    field = Q.ring.field
    return [field.from_int(rng.randint(-3, 3)) for _ in range(Q.dimension)]


def _monomials_up_to(n, d):
    if n == 0:
        return [()]
    return [(e,) + rest for e in range(d + 1) for rest in _monomials_up_to(n - 1, d - e)]


def _check_engine(Q, polys, rng):
    """Compare every engine operation on Q with the reference."""
    basis = quotient_reference_basis(Q)
    ring = Q.ring
    for g in polys:
        columns = Q.action_matrix(g)
        assert all(all(col.values()) for col in columns), g
        assert dense(columns, Q.dimension) == ref_action_matrix(Q, g, basis), g
    top = max(map(sum, Q.monomials)) + 2
    for m in _monomials_up_to(ring.npres, top):
        assert Q.nf_monomial(m) == ref_coords(Q, ring.monomial(m), basis), m
    for _ in range(3):
        u, v = _random_vec(Q, rng), _random_vec(Q, rng)
        assert Q.multiply(u, v) == ref_multiply(Q, u, v, basis)
    p = ring.field.characteristic
    vec = _random_vec(Q, rng)
    for e in sorted({0, 1, 2, 5, p}):
        assert Q.element_power(vec, e) == ref_element_power(Q, vec, e, basis), e


def _fixture_cases():
    cases = []
    for fixture in sorted(os.listdir(FIX)):
        if not fixture.endswith(".gx"):
            continue
        _, ideals, _ = parse_file(os.path.join(FIX, fixture))
        for name in sorted(ideals):
            for order in ORDERS:
                cases.append((fixture, name, order))
    return cases


@pytest.mark.parametrize("fixture,name,order", _fixture_cases())
def test_engine_matches_reference_on_fixtures(fixture, name, order):
    ring, ideals, _ = parse_file(os.path.join(FIX, fixture))
    try:
        Q = QuotientBasis(ideals[name], ORDERS[order](ring.npres))
    except NotZeroDimensional:
        pytest.skip("quotient is not finite-dimensional")
    # every generator in the document (some reduce to zero modulo this
    # ideal, some do not), plus a polynomial with a unit constant term
    polys = [g for I in ideals.values() for g in I.gens]
    polys.append(sum((ring.var(v) for v in ring.pres_names), ring.one()) ** 2)
    _check_engine(Q, polys, random.Random(fixture + name + order))


_FIELDS = [GF(3), GF(7), QQ]


@st.composite
def m_primary_ideals(draw):
    """A small ideal primary to (all variables): a pure power of every
    variable plus up to two random polynomials without constant term,
    each homogeneous when the ideal is drawn graded."""
    field = draw(st.sampled_from(_FIELDS))
    n = draw(st.integers(2, 3))
    ring = RingSpec.make(field, ("x", "y", "z")[:n])
    gens = [ring.var(v) ** draw(st.integers(1, 3)) for v in ring.names]
    monos = [m for m in _monomials_up_to(n, 3) if any(m)]
    graded = draw(st.booleans())
    for _ in range(draw(st.integers(0, 2))):
        pool = monos
        if graded:
            d = draw(st.integers(1, 3))
            pool = [m for m in monos if sum(m) == d]
        f = ring.zero()
        for m in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
            f = f + ring.monomial(m, field.from_int(draw(st.integers(-3, 3))))
        gens.append(f)
    order = ORDERS[draw(st.sampled_from(sorted(ORDERS)))](n)
    return Ideal(ring, gens), order


@settings(max_examples=40, deadline=None)
@given(m_primary_ideals(), st.integers(0, 2**16))
def test_engine_matches_reference_on_random_ideals(ideal_and_order, seed):
    I, order = ideal_and_order
    Q = QuotientBasis(I, order)
    rng = random.Random(seed)
    ring = I.ring
    g = ring.zero()
    for m in _monomials_up_to(ring.npres, 3):
        g = g + ring.monomial(m, ring.field.from_int(rng.randint(-2, 2)))
    _check_engine(Q, [g, g * g] + list(I.gens), rng)


def _check_minimal_polynomials_and_socle(cert, rng):
    """Minimal polynomials of every variable and of a random element
    against the reference, and the index (and for a graded ideal the graded
    index) against `socle_wrt`."""
    Q = cert.quotient
    basis = quotient_reference_basis(Q)
    n = Q.ring.npres
    for i in range(n):
        var = Q.nf_monomial(tuple(int(k == i) for k in range(n)))
        assert minimal_polynomial(Q, i) == ref_minimal_polynomial(Q, var, basis), i
    vec = _random_vec(Q, rng)
    assert minimal_polynomial(Q, vec) == ref_minimal_polynomial(Q, vec, basis)
    reference = len(socle_wrt(Q, cert.radical.gens))
    assert residue_socle_dimension(cert) == reference // cert.residue_dimension
    if Q.ideal.is_graded():
        assert graded_index(Q.ideal) == reference // cert.residue_dimension


@pytest.mark.parametrize("fixture,name,order", _fixture_cases())
def test_minimal_polynomial_and_index_match_reference_on_fixtures(fixture, name, order):
    ring, ideals, _ = parse_file(os.path.join(FIX, fixture))
    try:
        cert = radical_maximal_certify(ideals[name], ORDERS[order](ring.npres))
    except NotZeroDimensional:
        pytest.skip("quotient is not finite-dimensional")
    _check_minimal_polynomials_and_socle(cert, random.Random(fixture + name + order))


@settings(max_examples=40, deadline=None)
@given(m_primary_ideals(), st.integers(0, 2**16))
def test_minimal_polynomial_and_index_match_reference_on_random_ideals(ideal_and_order, seed):
    I, order = ideal_and_order
    cert = radical_maximal_certify(I, order)
    assert cert.irrelevant  # the index is read off the columns
    _check_minimal_polynomials_and_socle(cert, random.Random(seed))


# ---------------------------------------------------------------------------
# R/J from the subspace J/I of R/I against R/J from a Groebner basis of J


def _same_quotient(built, J, order=None):
    reference = QuotientBasis(J, order)
    assert built.monomials == reference.monomials
    assert built.columns == reference.columns
    assert built.degrees == reference.degrees
    assert not built.graded or J.is_graded()


def _decomposition_cases():
    return sorted({(fixture, name) for fixture, name, _ in _fixture_cases()})


@pytest.mark.parametrize("fixture,name", _decomposition_cases())
def test_components_built_in_the_quotient_match_their_groebner_quotients(fixture, name):
    _, ideals, _ = parse_file(os.path.join(FIX, fixture))
    try:
        dec = decompose(ideals[name])
    except ScopeError:
        pytest.skip("outside the decomposition's certified scope")
    assert len(dec.component_certificates) == dec.r
    for comp, cert in zip(dec.components, dec.component_certificates):
        assert cert.quotient.ideal is comp
        _same_quotient(cert.quotient, comp)


def _ideal_span(Q, polys):
    """Vectors spanning the ideal of R/I generated by the polynomials: their
    coordinates closed under every variable (not in echelon form)."""
    field = Q.ring.field
    vectors = []
    span = Span(field, Q.dimension)
    todo = []
    for f in polys:
        nf = Q.ideal.normal_form(f, Q.order)
        todo.append([nf.terms.get(m, field.zero()) for m in Q.monomials])
    while todo:
        v = todo.pop()
        if span.add(v):
            vectors.append(v)
            todo.extend(Q.apply_var(i, v) for i in range(Q.ring.npres))
    return vectors


@settings(max_examples=80, deadline=None)
@given(m_primary_ideals(), st.data())
def test_over_ideals_built_in_the_quotient_match_their_groebner_quotients(ideal_and_order, data):
    I, order = ideal_and_order
    ring = I.ring
    Q = QuotientBasis(I, order)
    graded = data.draw(st.booleans())
    # combinations of non-constant standard monomials of I, so that the
    # echelon rows of J/I mostly have several entries and the choice of
    # pivot decides which monomials stay standard
    extra = []
    monos = [m for m in Q.monomials if any(m)]
    for _ in range(data.draw(st.integers(1, 2)) if monos else 0):
        pool = monos
        if graded:
            d = data.draw(st.sampled_from(sorted({ring.weighted_degree(m) for m in monos})))
            pool = [m for m in monos if ring.weighted_degree(m) == d]
        size = min(2, len(pool))
        chosen = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=4, unique=True))
        f = ring.zero()
        for m in chosen:
            f = f + ring.monomial(m, ring.field.from_int(data.draw(st.sampled_from([1, 2, -1]))))
        extra.append(f)
    J = Ideal(ring, list(I.gens) + extra)
    built = quotient_of_subspace(Q, _ideal_span(Q, extra))
    _same_quotient(built, J, order)
    if graded and Q.graded and all(is_homogeneous(f) for f in extra):
        assert built.graded


def test_a_subspace_that_is_no_ideal_or_the_whole_quotient_is_refused():
    ring = RingSpec.make(GF(3), ("x", "y"))
    cert = radical_maximal_certify(Ideal(ring, [ring.var("x") ** 2, ring.var("y") ** 2]))
    Q = cert.quotient
    y = Q.nf_monomial((0, 1))
    with pytest.raises(GradixError, match="not an ideal"):
        quotient_of_subspace(Q, [y])  # x*y is missing
    assert over_ideal_certificate(cert, _ideal_span(Q, [ring.var("y")])).quotient.dimension == 2
    with pytest.raises(RadicalNotMaximal):
        over_ideal_certificate(cert, _ideal_span(Q, [ring.one()]))
