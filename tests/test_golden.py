"""Golden JSON reports: the `--json` output of the invariant commands on
every fixture (and one seeded corpus run) must stay byte-identical to the
recorded reports in `golden_reports.json`.

Refactors of the algebra engine must not change any answer.  To re-record
after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import os
import sys

import pytest

from gradix.cli import main
from gradix.gxparser import parse_file

HERE = os.path.dirname(os.path.abspath(__file__))
FIX = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(HERE, "golden_reports.json")

COMMANDS = [
    ["socle"],
    ["index"],
    ["type"],
    ["decompose", "--graded"],
    ["compare-star"],
    ["oracle"],
]
# the exhaustive lattice of this quotient takes minutes to enumerate
SKIP = {("oracle", "star_gap_b.gx")}
EXTRA = [["verify-thm", "--count", "50", "--seed", "1", "--nvars", "3,4", "--json"]]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _all_cases():
    """Every (fixture, ideal, command) invocation, with paths relative to
    the fixture directory so the reports do not depend on the checkout."""
    cases = []
    for fixture in sorted(os.listdir(FIX)):
        if not fixture.endswith(".gx"):
            continue
        for name in sorted(parse_file(os.path.join(FIX, fixture))[1]):
            for cmd in COMMANDS:
                if (cmd[0], fixture) in SKIP:
                    continue
                cases.append(
                    [cmd[0], "-i", fixture, "--ideal", name, *cmd[1:], "--json"]
                )
    return cases + EXTRA


def record():
    """Run every case and keep the full reports: exit 0, and exit 3 (a
    reported theorem contradiction).  Refusals and errors are left out."""
    os.chdir(FIX)
    golden = {}
    for argv in _all_cases():
        code, out = _run(argv)
        if code in (0, 3):
            golden[" ".join(argv)] = {"exit": code, "stdout": out}
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return golden


def _golden():
    if not os.path.exists(GOLDEN):
        return {}  # only while recording; the coverage test then fails
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("key", sorted(_golden()))
def test_golden_report_is_byte_identical(key, monkeypatch):
    monkeypatch.chdir(FIX)
    code, out = _run(key.split(" "))
    want = _golden()[key]
    assert (code, out) == (want["exit"], want["stdout"])


def test_golden_covers_every_command():
    keys = _golden()
    for cmd in COMMANDS + EXTRA:
        assert any(k.split(" ")[0] == cmd[0] for k in keys), cmd


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    print(f"recorded {len(record())} reports")
