"""Univariate helpers: gcd, squarefree parts, rational irreducibility."""

import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gradix.fields import GF, QQ
from gradix.upoly import (
    ddf_degree_pattern,
    divmod_poly,
    factor_mod_p,
    gcd_poly,
    monic,
    mul,
    qq_irreducible,
    squarefree_part,
)
from oracles import ref_squarefree_part


def QP(*cs):
    return [Fraction(c) for c in cs]


def test_divmod_and_gcd():
    # (x^2 - 1) = (x - 1)(x + 1)
    q, r = divmod_poly(QP(-1, 0, 1), QP(-1, 1), QQ)
    assert q == QP(1, 1) and r == []
    assert gcd_poly(QP(-1, 0, 1), QP(1, 1), QQ) == QP(1, 1)


def test_squarefree_char0():
    # (x-1)^2 (x+2) -> (x-1)(x+2)
    f = mul(mul(QP(-1, 1), QP(-1, 1), QQ), QP(2, 1), QQ)
    assert squarefree_part(f, QQ) == mul(QP(-1, 1), QP(2, 1), QQ)


def test_squarefree_gf3_power_of_p():
    F = GF(3)
    # x^3 over GF(3): derivative vanishes, contraction gives x
    assert squarefree_part([0, 0, 0, 1], F) == [0, 1]
    # (x^2+1)^3 over GF(3) = x^6 + 1 (freshman's dream)
    f = [1, 0, 0, 0, 0, 0, 1]
    assert squarefree_part(f, F) == [1, 0, 1]


def test_squarefree_gf3_mixed():
    F = GF(3)
    # x^3 * (x+1) = x^4 + x^3
    f = [0, 0, 0, 1, 1]
    got = squarefree_part(f, F)
    assert got == mul([0, 1], [1, 1], F)  # x(x+1)


@st.composite
def gf_products(draw):
    """(f, GF(p)): a product of random factors with multiplicities up to
    2p + 1, so p-th powers and multiplicities divisible by p both occur."""
    F = GF(draw(st.sampled_from([2, 3, 5, 7])))
    p = F.characteristic
    f = [F.from_int(draw(st.integers(1, p - 1)))]
    for _ in range(draw(st.integers(1, 4))):
        q = [F.from_int(c) for c in draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))]
        q.append(F.one())
        for _ in range(draw(st.integers(1, 2 * p + 1))):
            f = mul(f, q, F)
    return f, F


@settings(max_examples=150, deadline=None)
@given(gf_products())
def test_squarefree_part_matches_the_one_factor_at_a_time_loop(case):
    f, F = case
    assert squarefree_part(f, F) == ref_squarefree_part(f, F)


def test_squarefree_part_matches_the_loop_on_dense_low_multiplicity_products():
    # several dense factors, each at most to the fourth power, over small
    # and large primes: the common shape of a minimal polynomial
    rng = random.Random(3)
    for _ in range(150):
        F = GF(rng.choice([3, 7, 32003]))
        f = [F.one()]
        for _ in range(rng.randint(2, 5)):
            q = [F.from_int(rng.randrange(F.characteristic)) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 4)):
                f = mul(f, q + [F.one()], F)
        assert squarefree_part(f, F) == ref_squarefree_part(f, F)


def test_squarefree_part_of_a_deep_power_within_budget():
    # stripping t from t^2999 one factor at a time took over a second
    F = GF(7)
    started = time.perf_counter()
    assert squarefree_part([0] * 3000 + [1], F) == [0, 1]
    assert time.perf_counter() - started < 0.5


def test_factor_mod_p_degrees_match_the_ddf_pattern():
    rng = random.Random(5)
    compared = 0
    for _ in range(200):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))] + [1]
        for p in (3, 5, 7, 11, 13):
            pattern = ddf_degree_pattern(f, p)
            if pattern is None:
                continue
            factors = factor_mod_p(f, p, rng)
            assert sorted(len(g) - 1 for g in factors) == pattern
            F = GF(p)
            product = [F.one()]
            for g in factors:
                product = mul(product, g, F)
            assert product == monic([c % p for c in f], F)
            compared += 1
    assert compared > 500


def test_qq_irreducible_basics():
    assert not qq_irreducible(QP(-1, 0, 1))  # x^2-1
    assert qq_irreducible(QP(-2, 0, 1))  # x^2-2
    assert qq_irreducible(QP(1, 0, 1))  # x^2+1
    assert qq_irreducible(QP(1, 1))  # linear
    assert not qq_irreducible(QP(0, 1, 1))  # x(x+1)


def test_qq_irreducible_x4_plus_1_needs_recombination():
    # x^4+1 is irreducible over QQ but factors modulo every prime
    assert qq_irreducible(QP(1, 0, 0, 0, 1))


def test_qq_irreducible_products():
    # (x^2+1)(x^2-2): both factors irreducible, product is not
    f = mul(QP(1, 0, 1), QP(-2, 0, 1), QQ)
    assert not qq_irreducible(f)
    # (x^2+x+1)(x^2+2): no rational roots, pattern tests may be ambiguous
    f = mul(QP(1, 1, 1), QP(2, 0, 1), QQ)
    assert not qq_irreducible(f)


def test_qq_irreducible_non_monic():
    # 2x^2 - 1: irreducible; monicization path
    assert qq_irreducible(QP(-1, 0, 2))
    # 4x^2 - 1 = (2x-1)(2x+1)
    assert not qq_irreducible(QP(-1, 0, 4))


def test_qq_irreducible_degree5():
    # x^5 - x - 1: classic irreducible
    assert qq_irreducible(QP(-1, -1, 0, 0, 0, 1))
    # x^5 - x: splits completely
    assert not qq_irreducible(QP(0, -1, 0, 0, 0, 1))


def test_qq_irreducible_splits_mod_every_prime():
    # x^4 - 10x^2 + 1 (minimal polynomial of sqrt(2)+sqrt(3)) is
    # irreducible yet reducible modulo every prime: degree patterns can
    # never certify it, so the lifting/recombination path must decide
    assert qq_irreducible(QP(1, 0, -10, 0, 1))
    # and the same machinery must still detect honest factorizations
    f = mul(QP(1, 0, -10, 0, 1), QP(-2, 0, 1), QQ)
    assert not qq_irreducible(f)
