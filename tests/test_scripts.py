"""The experiment scripts report a failure through their exit status."""

import importlib.util
import os
import sys

from gradix.errors import ScopeError, TheoremContradiction

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_exhaustion_exits_0_when_every_algebra_passes(capsys):
    assert load("oracle_exhaustion").main() == 0
    assert "FAILURES" not in capsys.readouterr().out


def test_oracle_exhaustion_exits_1_on_a_failing_algebra(monkeypatch, capsys):
    script = load("oracle_exhaustion")
    real = script.oracle_theorems

    def failing(A):
        rep = real(A)
        rep.failures.append("planted")
        return rep

    monkeypatch.setattr(script, "oracle_theorems", failing)
    assert script.main() == 1
    assert f"{len(script.FIXTURES)} FAILURES" in capsys.readouterr().out


def test_star_comparison_experiment_exits_1_on_a_contradiction(monkeypatch, capsys):
    script = load("star_comparison_experiment")

    def contradicting(I):
        raise TheoremContradiction("planted", {"ideal": "x"})

    monkeypatch.setattr(script, "compare_star", contradicting)
    monkeypatch.setattr(sys, "argv", ["star_comparison_experiment.py", "--count", "3"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "CONTRADICTION" in out and "ideal: " in out


def test_star_comparison_experiment_exits_1_when_every_draw_is_refused(monkeypatch, capsys):
    script = load("star_comparison_experiment")

    def refusing(I):
        raise ScopeError("planted")

    monkeypatch.setattr(script, "compare_star", refusing)
    monkeypatch.setattr(sys, "argv", ["star_comparison_experiment.py", "--count", "2"])
    assert script.main() == 1
    assert "gave up: 0 of 2 rows after 200 draws" in capsys.readouterr().out
