"""Exact coefficient arithmetic over QQ and GF(p).

Elements are plain Python values: `fractions.Fraction` over the rationals
(always reduced, positive denominator) and `int` residues in [0, p) over a
prime field.  Field objects are immutable descriptors carrying the
operations, so polynomial code stays generic over the coefficient field.
No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FieldMismatch, GradixError

MAX_PRIME = 2**31  # products of residues must fit comfortably in native ints


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    # deterministic Miller-Rabin, valid for n < 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rationals:
    """The field QQ; elements are `Fraction` values."""

    characteristic: int = 0
    kind: str = "QQ"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inversion of zero")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("inversion of zero")
        return a / b

    def is_zero(self, a) -> bool:
        return a == 0

    def validate(self, a):
        if isinstance(a, int):
            return Fraction(a)
        if isinstance(a, Fraction):
            return a
        raise FieldMismatch(f"{a!r} is not a rational element")

    def __str__(self):
        return "QQ"


@dataclass(frozen=True)
class PrimeField:
    """The field GF(p); elements are canonical residues in [0, p)."""

    characteristic: int
    kind: str = "GF"

    def __post_init__(self):
        p = self.characteristic
        if not is_prime(p):
            raise GradixError(f"GF modulus {p} is not prime")
        if p >= MAX_PRIME:
            raise GradixError(f"GF modulus {p} exceeds supported bound {MAX_PRIME}")

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.characteristic

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return a * b % self.characteristic

    def neg(self, a):
        return -a % self.characteristic

    def inv(self, a):
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inversion of zero")
        return pow(a, self.characteristic - 2, self.characteristic)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a % self.characteristic == 0

    def validate(self, a):
        if isinstance(a, int):
            return a % self.characteristic
        if isinstance(a, Fraction) and a.denominator == 1:
            return a.numerator % self.characteristic
        raise FieldMismatch(f"{a!r} is not a GF({self.characteristic}) element")

    def __str__(self):
        return f"GF({self.characteristic})"


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
