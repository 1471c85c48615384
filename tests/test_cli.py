"""Command-line behavior: outputs, exit codes, JSON schema, reproducibility."""

import json
import os

import pytest

from gradix.cli import main, moh_parameters
from gradix.errors import ScopeError
from gradix.gxparser import parse_document, parse_poly
from gradix.groebner import Ideal, ideal_equal

FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIX, name)


def test_gb_zero_ideal_exit_zero(capsys):
    code = main(["gb", "-i", fx("empty.gx"), "--ideal", "Z"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_index_min_nonmonomial(capsys):
    code = main(["index", "-i", fx("min_nonmonomial.gx"), "--ideal", "I"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_gindex_min_nonmonomial(capsys):
    code = main(["gindex", "-i", fx("min_nonmonomial_gf3.gx"), "--ideal", "I"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"


def test_member_and_nf(capsys):
    assert main(["member", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--poly", "y^3"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["member", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--poly", "x+y"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["nf", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--poly", "x^2"]) == 0
    assert capsys.readouterr().out.strip() == "y^2"


def test_intersect_command(capsys):
    code = main(["intersect", "-i", fx("min_nonmonomial.gx"), "--ideals", "J1,J2", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema"] == 1
    ring, ideals, _ = parse_document(open(fx("min_nonmonomial.gx")).read())
    got = Ideal(ring, [parse_poly(s, ring) for s in rep["result"]["intersection"]])
    assert ideal_equal(got, ideals["I"])


def test_socle_and_hilbert(capsys):
    assert main(["socle", "-i", fx("min_nonmonomial.gx"), "--ideal", "I"]) == 0
    out = capsys.readouterr().out
    assert "dimension 2" in out and "x+y" in out
    assert main(["hilbert", "-i", fx("min_nonmonomial.gx"), "--ideal", "I"]) == 0
    assert capsys.readouterr().out.splitlines() == ["0: 1", "1: 2", "2: 1"]


def test_decompose_json_round_trip(capsys):
    code = main(["decompose", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--graded", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    res = rep["result"]
    assert res["r"] == 2 and res["r_graded"] == 2
    ring, ideals, _ = parse_document(open(fx("min_nonmonomial.gx")).read())
    comps = [
        Ideal(ring, [parse_poly(s, ring) for s in gens]) for gens in res["components"]
    ]
    target = Ideal(ring, [parse_poly("x+y", ring), parse_poly("y^3", ring)])
    assert any(ideal_equal(c, target) for c in comps)
    # reported ideals re-parse to equal ideals (round-trip invariant)
    from gradix.groebner import intersect

    assert ideal_equal(intersect(comps[0], comps[1]), ideals["I"])


def test_verify_command(capsys):
    code = main(["verify", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--parts", "J1,J2"])
    assert code == 0
    assert "valid (irredundant)" in capsys.readouterr().out


def test_star_commands(capsys):
    code = main(["star", "-i", fx("star_gap_b.gx"), "--ideal", "I", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["certificate"] == "certified"
    ring, ideals, _ = parse_document(open(fx("star_gap_b.gx")).read())
    got = Ideal(ring, [parse_poly(s, ring) for s in rep["result"]["star"]])
    assert ideal_equal(got, ideals["Istar"])


def test_compare_star_star_gap_b(capsys):
    code = main(["compare-star", "-i", fx("star_gap_b.gx"), "--ideal", "I", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["r"] == 1
    assert rep["result"]["r_star"] == 3
    assert not rep["result"]["hypothesis_met"]


def test_compare_star_laurent_point(capsys):
    code = main(["compare-star", "-i", fx("laurent_point.gx"), "--ideal", "I", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["r"] == 1 and rep["result"]["r_star"] == 1
    assert rep["result"]["hypothesis_met"] and rep["result"]["conclusion_holds"]


def test_exit_code_2_on_scope_refusal(capsys):
    code = main(["index", "-i", fx("empty.gx"), "--ideal", "NotZeroDim"])
    assert code == 2
    assert "refused" in capsys.readouterr().err


def test_exit_code_1_on_usage_errors(capsys):
    assert main(["index", "-i", fx("min_nonmonomial.gx"), "--ideal", "Nope"]) == 1
    assert main(["nonsense"]) == 1
    assert main(["index", "-i", fx("min_nonmonomial.gx")]) == 1  # missing --ideal


def test_oracle_command(capsys):
    code = main(["oracle", "-i", fx("min_nonmonomial_gf3.gx"), "--ideal", "I", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["index"] == 2
    assert rep["result"]["failures"] == []


def test_moh_parameters_validation():
    assert moh_parameters(1, 3) == 1
    assert moh_parameters(3, 25) == 2
    with pytest.raises(ScopeError):
        moh_parameters(2, 100)
    with pytest.raises(ScopeError):
        moh_parameters(3, 24)  # needs l > 24
    with pytest.raises(ScopeError):
        moh_parameters(3, 26)  # gcd(l, m) = 2


def test_moh_smallest_instance(capsys):
    code = main(["moh", "--n", "1", "--l", "3", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["star_principal"] is True
    assert rep["result"]["local_min_generators"] >= 1
    assert rep["result"]["kernel"]


def test_moh_refuses_even_n(capsys):
    assert main(["moh", "--n", "2", "--l", "100"]) == 2


def test_verify_thm_small(capsys):
    code = main(["verify-thm", "--count", "4", "--seed", "7", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["total"] == 4
    assert rep["result"]["passed"] == 4


def test_json_outputs_are_byte_identical(capsys):
    argv = ["decompose", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--graded", "--json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("GRADIX_SEED", "7")
    main(["verify-thm", "--count", "2", "--json"])
    via_env = json.loads(capsys.readouterr().out)
    monkeypatch.delenv("GRADIX_SEED")
    main(["verify-thm", "--count", "2", "--seed", "7", "--json"])
    via_flag = json.loads(capsys.readouterr().out)
    assert via_env["result"] == via_flag["result"]
    assert via_env["result"]["seed"] == 7


def test_eliminate_command(capsys):
    code = main(
        ["eliminate", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--vars", "x", "--json"]
    )
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["result"]["elimination"] == ["y^3"]


def test_quotient_and_saturate_commands(capsys):
    assert main(["quotient", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--poly", "x+y"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["y", "x"]
    assert main(["saturate", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--poly", "1"]) == 0


@pytest.mark.parametrize("command", ["quotient", "saturate"])
def test_colon_and_saturation_by_zero_are_usage_errors(capsys, command):
    argv = [command, "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--poly", "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_verify_thm_over_qq(capsys):
    code = main(["verify-thm", "--count", "3", "--seed", "1", "--field", "QQ", "--json"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ring"] == "QQ[2,3 variables]"
    assert rep["result"]["passed"] == 3


@pytest.mark.parametrize(
    "option", [["--nvars", "5"], ["--nvars", "0"], ["--nvars", "a"], ["--field", "GF(x)"]]
)
def test_verify_thm_rejects_unsupported_input(capsys, option):
    assert main(["verify-thm", "--count", "2", *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_type_command(capsys):
    assert main(["type", "-i", fx("min_nonmonomial.gx"), "--ideal", "J1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_command_surface_is_complete():
    from gradix.cli import _HANDLERS

    assert set(_HANDLERS) == {
        "gb",
        "nf",
        "member",
        "intersect",
        "quotient",
        "saturate",
        "eliminate",
        "socle",
        "hilbert",
        "type",
        "index",
        "gindex",
        "decompose",
        "verify",
        "star",
        "compare-star",
        "moh",
        "oracle",
        "verify-thm",
    }


def test_exit_code_3_reserved_for_contradictions(capsys, monkeypatch):
    # exit 3 happens exactly when a handler raises a contradiction event
    import gradix.cli as cli
    from gradix.errors import TheoremContradiction

    def boom(args, report):
        raise TheoremContradiction("synthetic", {"detail": "forced by the test"})

    monkeypatch.setitem(cli._HANDLERS, "index", boom)
    code = main(["index", "-i", fx("min_nonmonomial.gx"), "--ideal", "I", "--json"])
    assert code == 3
    rep = json.loads(capsys.readouterr().out)
    assert rep["theorem_contradictions"][0]["statement"] == "synthetic"


def test_verify_thm_jobs_keeps_corpus_order(capsys, monkeypatch):
    from gradix import cli

    _, ideals, _ = parse_document(
        "ring GF(3)[x,y];\nideal A = x;\nideal B = y;\nideal C = x+y;\nideal D = x^2, y^2;"
    )
    monkeypatch.setattr(cli, "corpus", lambda **kw: [ideals[k] for k in "ABCD"])
    reports = []
    for jobs in ("1", "2"):
        code = main(["verify-thm", "--count", "4", "--jobs", jobs, "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"].pop("jobs") == int(jobs)
        reports.append((code, report))
    assert [f["ideal"] for f in reports[0][1]["result"]["failures"]] == ["x", "y", "x+y"]
    assert reports[1] == reports[0]
