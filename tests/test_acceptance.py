"""Acceptance suite: one numbered criterion per test, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Two criteria carry reference expectations that are mathematically
unattainable; those checks are split into their own `_reference_values`
tests, which fail honestly and document the discrepancy in their
docstrings (full analysis lives outside the package, in the project
notes).  Everything else must pass at exact tolerance.
"""

import os
import time

from gradix import artin, invsys, oracle, reduc
from gradix.corpus import corpus
from gradix.errors import CharacteristicForbidden, TheoremContradiction
from gradix.fields import GF, QQ
from gradix.groebner import Ideal, ideal_equal, intersect, intersect_many
from gradix.gxparser import parse_file, parse_poly
from gradix.invsys import inverse_system
from gradix.poly import RingSpec
from gradix.star import star, star_lambda

from oracles import annihilator, char_guard, dual_generators, monomial_split

FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def _doc(name):
    return parse_file(os.path.join(FIX, name))


def _report(num, label, checks, started, budget):
    elapsed = time.perf_counter() - started
    checks = list(checks) + [(f"runtime<{budget}s", elapsed < budget)]
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL (" + ", ".join(failed) + ")"
    print(f"ACCEPTANCE {num} [{label}]: {status} ({elapsed:.2f}s)")
    assert not failed, f"criterion {num} failing checks: {failed}"


def test_criterion_1_quadratic_socle_suite():
    started = time.perf_counter()
    checks = []
    for fixture in ("min_nonmonomial.gx", "min_nonmonomial_gf3.gx"):
        ring, ideals, _ = _doc(fixture)
        I, J1, J2 = ideals["I"], ideals["J1"], ideals["J2"]
        tag = str(ring.field)
        checks.append((f"r=2 {tag}", reduc.index_of_reducibility(I) == 2))
        checks.append((f"graded index=2 {tag}", reduc.graded_index(I) == 2))
        Q = artin.QuotientBasis(I)
        expected = [parse_poly("x+y", ring), parse_poly("y^2", ring)]
        checks.append((f"socle basis {tag}", [Q.to_poly(v) for v in artin.socle(Q)] == expected))
        checks.append(
            (f"x^2 class {tag}", I.normal_form(parse_poly("x^2", ring)) == expected[1])
        )
        checks.append((f"J1 cap J2 {tag}", ideal_equal(intersect(J1, J2), I)))
        checks.append(
            (f"J1 irreducible {tag}", reduc.index_of_reducibility(J1) == 1)
        )
        checks.append(
            (f"J2 irreducible {tag}", reduc.index_of_reducibility(J2) == 1)
        )
        checks.append(
            (
                f"graded pair {tag}",
                ideal_equal(intersect(ideals["L1"], ideals["L2"]), I),
            )
        )
    _report(1, "quadratic-socle example", checks, started, 1.0)


def test_criterion_2_component_family():
    started = time.perf_counter()
    ring, ideals, _ = _doc("min_nonmonomial.gx")
    I, L1 = ideals["I"], ideals["L1"]
    checks = []
    for b in (0, 1, 2, 5):
        other = Ideal(ring, [parse_poly(f"x-{b}*y", ring), parse_poly("y^2", ring)])
        checks.append((f"b={b}", ideal_equal(intersect(L1, other), I)))
    bad = Ideal(ring, [parse_poly("x+y", ring), parse_poly("y^2", ring)])  # b = -1
    checks.append(("b=-1 fails", not ideal_equal(intersect(L1, bad), I)))
    checks.append(("(y,x^2) member", ideal_equal(intersect(L1, ideals["L2"]), I)))
    for field in (QQ, GF(3), GF(5)):
        r = RingSpec.make(field, ("x", "y"))
        I_f = Ideal(
            r,
            [
                parse_poly("x^2+x*y", r),
                parse_poly("x^2-y^2", r),
                parse_poly("y^3", r),
            ],
        )
        rep = invsys.decompose(I_f, graded=True)
        target = Ideal(r, [parse_poly("x+y", r), parse_poly("y^3", r)])
        checks.append(
            (
                f"unique component {field}",
                any(ideal_equal(c, target) for c in rep.components),
            )
        )
    _report(2, "component family", checks, started, 1.0)


def _star_gap(which):
    ring, ideals, _ = _doc("star_gap_a.gx" if which == 1 else "star_gap_b.gx")
    return ring, ideals["I"], ideals["Istar"]


def test_criterion_3_star_comparison_suite():
    started = time.perf_counter()
    checks = []
    ring1, I1, Istar1 = _star_gap(1)
    ring2, I2, Istar2 = _star_gap(2)
    checks.append(("(1) r=3", reduc.index_of_reducibility(I1) == 3))
    checks.append(("(2) r=1", reduc.index_of_reducibility(I2) == 1))
    checks.append(("(2) r_star=3", reduc.index_of_star_ideal(star(I2).ideal) == 3))
    checks.append(("(2) star exact", ideal_equal(star(I2).ideal, Istar2)))
    vars3 = Ideal(ring1, [ring1.var(v) for v in ("x", "y", "z")])
    for label, J in (
        ("(1) I", I1),
        ("(1) I*", Istar1),
        ("(2) I", I2),
        ("(2) I*", Istar2),
    ):
        cert = artin.radical_maximal_certify(J)
        checks.append(
            (f"radical {label}", cert.maximal and ideal_equal(cert.radical, vars3))
        )
    _report(3, "star comparison", checks, started, 5.0)


def test_criterion_3_reference_values():
    """Reference expectations for the first instance that cannot hold: the
    adjoined element x^2-y^3 degenerates (x times it gives x^3 modulo the
    quadratic monomials, and x^3-y^3 is a generator), so the ideal equals
    the graded monomial ideal (x^2, xy, xz, yz, y^3, z^3).  Its largest
    graded subideal is itself, with index 3, not the listed quintic ideal
    of index 1."""
    started = time.perf_counter()
    _, I1, Istar1 = _star_gap(1)
    checks = [
        ("(1) r_star=1", reduc.index_of_star_ideal(star(I1).ideal) == 1),
        ("(1) star exact", ideal_equal(star(I1).ideal, Istar1)),
    ]
    _report("3r", "star comparison, reference values", checks, started, 5.0)


def test_criterion_4_laurent_example():
    started = time.perf_counter()
    ring, ideals, _ = _doc("laurent_point.gx")
    I = ideals["I"]
    checks = [
        ("r=1", reduc.index_of_reducibility(I) == 1),
        ("r_star=1", reduc.index_of_star_ideal(star(I).ideal) == 1),
    ]
    res = star_lambda(I)
    checks.append(
        ("star contains x^2", res.ideal.contains(parse_poly("x^2", ring)))
    )
    checks.append(
        ("star contains y^2", res.ideal.contains(parse_poly("y^2", ring)))
    )
    _report(4, "Laurent example", checks, started, 5.0)


def test_criterion_4_reference_values():
    """Reference expectations that cannot hold: x*t - y = x*(t-1) + (x-y)
    is a homogeneous element of the ideal (degrees 0, 1, 1 for x, y, t),
    so the largest graded subideal strictly exceeds (x^2, y^2); modulo the
    true subideal the quotient is generated by t-1 alone, not by two
    elements."""
    started = time.perf_counter()
    ring, ideals, _ = _doc("laurent_point.gx")
    I = ideals["I"]
    res = star_lambda(I)
    printed = ideals["Istar_printed"]
    cmp = reduc.compare_star(I)
    checks = [
        ("star_lambda = (x^2, y^2)", ideal_equal(res.ideal, printed)),
        ("quotient needs 2 generators", cmp.quotient_generator_count == 2),
    ]
    _report("4r", "Laurent example, reference values", checks, started, 5.0)


def test_criterion_5_monomial_identity():
    started = time.perf_counter()
    checks = []
    for fixture in ("split_identity.gx", "split_identity_gf3.gx"):
        ring, ideals, _ = _doc(fixture)
        char_guard(ring.field, [2])
        got = intersect(ideals["A"], ideals["B"])
        checks.append((f"identity {ring.field}", ideal_equal(got, ideals["C"])))
    # over GF(2) the computation must be refused by the characteristic guard
    ring2, ideals2, _ = _doc("split_identity_gf2.gx")
    refused = False
    try:
        char_guard(ring2.field, [2])
    except CharacteristicForbidden as e:
        refused = e.characteristic == 2
    checks.append(("GF(2) refused", refused))
    # and indeed the identity genuinely fails there
    got2 = intersect(ideals2["A"], ideals2["B"])
    checks.append(("GF(2) identity fails", not ideal_equal(got2, ideals2["C"])))
    ring, _, _ = _doc("split_identity.gx")
    C = Ideal(
        ring,
        [parse_poly("x^2", ring), parse_poly("x*y", ring), parse_poly("y^3", ring)],
    )
    split = monomial_split(C)
    checks.append(("split exists", split is not None))
    if split:
        A, B = split
        checks.append(("split verified", ideal_equal(intersect(A, B), C)))
    _report(5, "monomial identity", checks, started, 1.0)


def test_criterion_6_equivalence_property_suite():
    started = time.perf_counter()
    ideals = corpus(seed=20260808, count=200, field=GF(3), nvars_options=(2, 3))
    rep = reduc.verify_equivalence(ideals)
    checks = [
        ("200 ideals", rep.total == 200),
        ("zero violations", rep.ok),
        ("all passed", rep.passed == 200),
    ]
    if rep.failures:
        for f in rep.failures[:3]:
            print("fixture:", f)
    _report(6, "index equivalence on random corpus", checks, started, 120.0)


ORACLE_FIXTURES = [
    (GF(3), ("x", "y"), ["x^2+x*y", "x^2-y^2", "y^3"]),
    (GF(2), ("x",), ["x^2"]),
    (GF(3), ("x",), ["x^3"]),
    (GF(2), ("x", "y"), ["x^2", "x*y", "y^2"]),
    (GF(3), ("x", "y"), ["x^2", "x*y", "y^2"]),
    (GF(2), ("x", "y"), ["x^2", "y^2"]),
    (GF(3), ("x", "y"), ["x^2", "y^2"]),
    (GF(2), ("x", "y"), ["x^2", "x*y", "y^3"]),
    (GF(3), ("x", "y"), ["x", "y^2"]),
    (GF(2), ("x", "y", "z"), ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]),
    (GF(3), ("x",), ["x^5"]),
    (GF(2), ("x", "y"), ["x^3", "x*y", "y^2"]),
]


def test_criterion_7_oracle_exhaustion():
    started = time.perf_counter()
    checks = [("at least 10 algebras", len(ORACLE_FIXTURES) >= 10)]
    for field, names, gens in ORACLE_FIXTURES:
        ring = RingSpec.make(field, names)
        I = Ideal(ring, [parse_poly(s, ring) for s in gens])
        A = oracle.FiniteAlgebra.from_ideal(I)
        if A.quotient.dimension > 5:
            checks.append((f"dim cap {gens}", False))
            continue
        rep = oracle.oracle_theorems(A)
        tag = f"{field}/{','.join(gens)}"
        checks.append((f"ok {tag}", rep.ok))
        checks.append((f"index=socle {tag}", rep.index_plain == rep.socle_dim))
        checks.append(
            (f"lengths invariant {tag}", rep.decomposition_lengths == [rep.index_plain])
        )
        if rep.failures:
            print(oracle.dump_fixture(A))
    _report(7, "oracle exhaustion", checks, started, 120.0)


def test_criterion_8_inverse_system_duality():
    started = time.perf_counter()
    field = GF(32003)  # large characteristic: every quotient length stays below it
    ideals = corpus(seed=8150, count=100, field=field, nvars_options=(2, 3))
    checks = [("100 ideals", len(ideals) == 100)]
    failures = []
    for k, I in enumerate(ideals):
        inv = inverse_system(I)
        sd = len(artin.socle(artin.QuotientBasis(I)))
        if len(inv.generator_coords) != sd:
            failures.append(f"count mismatch at {k}")
        rep = invsys.decompose(I, graded=I.is_graded())
        if rep.r != sd:
            failures.append(f"component count mismatch at {k}")
        # coordinate route already certifies the intersection; cross-check a
        # sample with the honest annihilator + ideal intersection route
        if k % 20 == 0:
            anns = [annihilator(F, I.ring) for F in dual_generators(inv)]
            if not ideal_equal(intersect_many(anns), I):
                failures.append(f"annihilator round-trip fails at {k}")
    checks.append(("duality round-trip", not failures))
    if failures:
        print("failures:", failures[:5])
    _report(8, "inverse-system duality", checks, started, 120.0)


def test_criterion_9_principal_quotient_guard():
    started = time.perf_counter()
    events = []

    def probe(I):
        try:
            cmp = reduc.compare_star(I)
        except TheoremContradiction as e:
            events.append(str(e))
            return None
        if cmp.hypothesis_met and not cmp.conclusion_holds:
            events.append("silent violation")
        return cmp

    _, I1, _ = _star_gap(1)
    _, I2, _ = _star_gap(2)
    probe(I1)
    probe(I2)
    _, ideals13, _ = _doc("laurent_point.gx")
    probe(ideals13["I"])
    ring, ideals9, _ = _doc("min_nonmonomial.gx")
    probe(ideals9["I"])
    for I in corpus(seed=9, count=15, field=GF(3)):
        probe(I)
    checks = [("zero contradiction events", not events)]
    if events:
        print("events:", events)
    _report(9, "principal-quotient guard", checks, started, 120.0)


def test_criterion_10_curve_kernel_instance():
    started = time.perf_counter()
    from gradix.cli import moh_command

    rep = moh_command(3, 25, GF(32003))
    checks = [
        ("elimination terminates", bool(rep["kernel"])),
        ("needs >= 3 generators", rep["local_min_generators"] >= 3),
        ("star principal", rep["star_principal"]),
    ]
    _report(10, "curve kernel instance", checks, started, 60.0)
