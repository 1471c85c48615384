"""Golden CLI reports: every command's output on every fixture (and a few
seeded runs and error paths) must stay byte-identical to the recorded
reports in `golden_reports.json`: the exit code, stdout and stderr, in
text mode and with `--json`.

Refactors of the algebra engine or of the command line must not change any
answer.  To re-record after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import os
import sys

import pytest

from gradix.cli import _HANDLERS, main
from gradix.gxparser import parse_file

HERE = os.path.dirname(os.path.abspath(__file__))
FIX = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(HERE, "golden_reports.json")

# run on every ideal of every fixture
COMMANDS = [
    ["gb"],
    ["nf", "--poly", "x^2+x*y+y"],
    ["member", "--poly", "x*y"],
    ["quotient", "--poly", "x+y"],
    ["saturate", "--poly", "x"],
    ["eliminate", "--vars", "x"],
    ["socle"],
    ["hilbert"],
    ["type"],
    ["index"],
    ["gindex"],
    ["decompose", "--graded"],
    ["star"],
    ["star", "--method", "truncated", "--bound", "4"],
    ["star", "--method", "lambda"],
    ["compare-star"],
    ["oracle"],
]
# whole-command invocations, including usage errors and refusals
EXTRA = [
    ["verify-thm", "--count", "50", "--seed", "1", "--nvars", "3,4"],
    ["verify-thm", "--count", "2", "--nvars", "5"],
    ["verify-thm", "--count", "2", "--field", "GF(x)"],
    ["moh", "--n", "1", "--l", "3"],
    ["moh", "--n", "1", "--l", "3", "--field", "GF(7)"],
    ["moh", "--n", "2", "--l", "100"],
    ["index", "-i", "min_nonmonomial.gx", "--ideal", "Nope"],
    ["index", "-i", "missing.gx", "--ideal", "I"],
    ["intersect", "-i", "min_nonmonomial.gx", "--ideals", "J1"],
    ["intersect", "-i", "min_nonmonomial.gx", "--ideals", "J1,Nope"],
    ["verify", "-i", "min_nonmonomial.gx", "--ideal", "I", "--parts", "J1,Nope"],
    ["nf", "-i", "min_nonmonomial.gx", "--ideal", "I", "--poly", "x+"],
    ["gb", "-i", "min_nonmonomial.gx", "--ideal", "I", "--order", "lex"],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _all_cases():
    """Every invocation, each in `--json` and in text mode, with paths
    relative to the fixture directory so the reports do not depend on the
    checkout."""
    cases = []
    for fixture in sorted(os.listdir(FIX)):
        if not fixture.endswith(".gx"):
            continue
        names = sorted(parse_file(os.path.join(FIX, fixture))[1])
        cases.append(["intersect", "-i", fixture, "--ideals", ",".join(names)])
        for name in names:
            for cmd in COMMANDS:
                cases.append([cmd[0], "-i", fixture, "--ideal", name, *cmd[1:]])
            others = ",".join(n for n in names if n != name)
            cases.append(["verify", "-i", fixture, "--ideal", name, "--parts", others])
    return [argv + mode for argv in cases + EXTRA for mode in (["--json"], [])]


def record():
    """Run every case and keep its exit code, stdout and stderr."""
    os.chdir(FIX)
    golden = {}
    for argv in _all_cases():
        code, out, err = _run(argv)
        golden[" ".join(argv)] = {"exit": code, "stdout": out, "stderr": err}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return golden


def _golden():
    if not os.path.exists(GOLDEN):
        return {}  # only while recording; the coverage test then fails
    with open(GOLDEN) as fh:
        return json.load(fh)


REPORTS = _golden()


@pytest.mark.parametrize("key", sorted(REPORTS))
def test_golden_report_is_byte_identical(key, monkeypatch):
    monkeypatch.chdir(FIX)
    want = REPORTS[key]
    assert _run(key.split(" ")) == (want["exit"], want["stdout"], want["stderr"])


def test_golden_covers_every_command():
    keys = [k.split(" ") for k in REPORTS]
    for command in _HANDLERS:
        for json_mode in (True, False):
            assert any(
                k[0] == command and ("--json" in k) == json_mode for k in keys
            ), (command, json_mode)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    print(f"recorded {len(record())} reports")
