"""Coefficient field arithmetic: exactness, canonical forms, guards."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradix.errors import CharacteristicForbidden, GradixError
from gradix.fields import GF, QQ

from oracles import char_guard


def test_rational_add():
    assert QQ.add(QQ.validate(Fraction(1, 2)), QQ.validate(Fraction(1, 3))) == Fraction(5, 6)


def test_gf3_add_wraps():
    F = GF(3)
    assert F.add(F.validate(2), F.validate(2)) == 1


def test_add_identity():
    assert QQ.add(QQ.validate(Fraction(7, 3)), QQ.validate(0)) == Fraction(7, 3)
    F = GF(5)
    assert F.add(F.validate(4), F.validate(0)) == 4


def test_inverse_rational():
    assert QQ.inv(QQ.validate(Fraction(2, 3))) == Fraction(3, 2)


def test_inverse_gf5():
    F = GF(5)
    assert F.inv(F.validate(2)) == 3


def test_inverse_one():
    assert QQ.inv(QQ.validate(1)) == 1
    F = GF(7)
    assert F.inv(F.validate(1)) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.validate(0))
    F = GF(3)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.validate(0))


def test_char_guard():
    char_guard(QQ, [2])
    char_guard(GF(3), [2])
    with pytest.raises(CharacteristicForbidden) as exc:
        char_guard(GF(2), [2])
    assert exc.value.characteristic == 2


def test_gf_modulus_validation():
    with pytest.raises(GradixError):
        GF(4)
    with pytest.raises(GradixError):
        GF(1)
    with pytest.raises(GradixError):
        GF(2**31 + 11)
    assert GF(32003).characteristic == 32003


rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    F = QQ
    a, b, c = F.validate(a), F.validate(b), F.validate(c)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


@given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30))
def test_gf31_field_axioms(a, b, c):
    F = GF(31)
    a, b, c = F.validate(a), F.validate(b), F.validate(c)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a % 31:
        assert F.mul(a, F.inv(a)) == 1


def test_no_overflow_on_huge_rationals():
    big = QQ.validate(Fraction(10**80 + 1, 10**79))
    assert QQ.mul(big, QQ.inv(big)) == 1
