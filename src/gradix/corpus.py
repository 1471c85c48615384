"""Seeded random ideal corpora for the verification harnesses.

The standard recipe: one power of each variable (exponent at most 4) plus
up to three random homogeneous forms of degree at most 3, filtered to a
quotient length cap.  Deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from .artin import _monomials_of_total_degree
from .errors import GradixError
from .fields import GF
from .groebner import Ideal, standard_monomials
from .poly import RingSpec

VAR_NAMES = ("x", "y", "z", "w")


def random_graded_m_primary(
    ring: RingSpec,
    rng: random.Random,
    max_power: int = 4,
    max_extra_forms: int = 3,
    max_form_degree: int = 3,
    max_length: int = 60,
) -> Ideal:
    field = ring.field
    top = field.characteristic - 1 if field.characteristic else 9
    while True:
        gens = [ring.var(n) ** rng.randint(1, max_power) for n in ring.names]
        for _ in range(rng.randint(0, max_extra_forms)):
            d = rng.randint(1, max_form_degree)
            f = ring.zero()
            for m in _monomials_of_total_degree(ring.npres, d):
                f = f + ring.monomial(m, field.from_int(rng.randint(0, top)))
            if not f.is_zero():
                gens.append(f)
        I = Ideal(ring, gens)
        sm = standard_monomials(I)
        if sm is not None and 0 < len(sm) <= max_length:
            return I


def corpus(seed: int, count: int, field=None, nvars_options=(2, 3), **kwargs) -> list[Ideal]:
    field = field or GF(3)
    if not all(1 <= n <= len(VAR_NAMES) for n in nvars_options):
        raise GradixError(
            f"corpus rings have 1 to {len(VAR_NAMES)} variables (got {list(nvars_options)})"
        )
    if count < 0:
        raise GradixError(f"corpus size must be non-negative (got {count})")
    rng = random.Random(seed)
    rings = {n: RingSpec.make(field, VAR_NAMES[:n]) for n in nvars_options}
    out = []
    for _ in range(count):
        n = rng.choice(list(nvars_options))
        out.append(random_graded_m_primary(rings[n], rng, **kwargs))
    return out
