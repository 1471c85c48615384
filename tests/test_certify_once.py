"""A public call certifies its input ideal once and builds R/I once: the
radical certificate carries the quotient, and no layer rebuilds it."""

import sys

import pytest

from gradix import artin
from gradix.fields import GF, QQ
from gradix.groebner import Ideal
from gradix.gxparser import parse_poly
from gradix.poly import RingSpec
from gradix.reduc import compare_star, decompose_report, index_of_reducibility, verify_equivalence


@pytest.fixture
def count(monkeypatch):
    """count(call, I) runs call(I) and returns (QuotientBasis builds,
    radical certificates) whose ideal is I itself, not an equal ideal."""
    watched = []
    tally = [0, 0]
    init = artin.QuotientBasis.__init__
    certify = artin.radical_maximal_certify

    def counting_init(self, ideal, order=None):
        tally[0] += ideal is watched[-1]
        init(self, ideal, order)

    def counting_certify(I, order=None):
        tally[1] += I is watched[-1]
        return certify(I, order)

    monkeypatch.setattr(artin.QuotientBasis, "__init__", counting_init)
    for name, mod in list(sys.modules.items()):
        if name.startswith("gradix") and getattr(mod, "radical_maximal_certify", None) is certify:
            monkeypatch.setattr(mod, "radical_maximal_certify", counting_certify)

    def run(call, I):
        watched.append(I)
        tally[:] = [0, 0]
        call(I)
        return tuple(tally)

    return run


def ideal(field, names, gens):
    ring = RingSpec.make(field, names)
    return Ideal(ring, [parse_poly(g, ring) for g in gens])


def fixture():
    return ideal(GF(3), ("x", "y", "z"), ["x^2", "y^2", "z^2", "x*y"])


def test_index_of_reducibility_certifies_once(count):
    assert count(index_of_reducibility, fixture()) == (1, 1)


def test_verify_equivalence_certifies_once(count):
    def call(I):
        assert verify_equivalence([I]).ok

    assert count(call, fixture()) == (1, 1)


def test_decompose_report_certifies_once(count):
    def call(I):
        rep = decompose_report(I, graded=True)
        assert rep.r == rep.r_graded == 2

    assert count(call, fixture()) == (1, 1)


@pytest.mark.parametrize(
    "names, gens, method",
    [
        ("xyz", ["z^3", "y^3", "x^3*y^2", "x^5*y", "x^7", "x^3+x*y"], "truncated"),
        ("xy", ["(x-1)^3", "(x-1)*(y-2)", "(y-2)^2"], "lambda"),
    ],
)
def test_compare_star_certifies_at_most_three_times(count, names, gens, method):
    def call(I):
        assert compare_star(I).star_result.method == method

    # the lambda method's consistency probe reuses the refused truncated
    # attempt's certificate instead of certifying I again
    most = {"truncated": 3, "lambda": 2}[method]
    builds, certificates = count(call, ideal(QQ, tuple(names), gens))
    assert builds <= most and certificates <= most


def test_index_of_irrelevant_primary_ideal_builds_no_action_matrix(monkeypatch):
    """The radical (x, y, z) is the ideal of all variables, so the socle is
    read off the multiplication columns, not from dense action matrices."""
    calls = []
    action_matrix = artin.QuotientBasis.action_matrix

    def counting(self, g):
        calls.append(g)
        return action_matrix(self, g)

    monkeypatch.setattr(artin.QuotientBasis, "action_matrix", counting)
    assert index_of_reducibility(fixture()) == 2
    assert calls == []
