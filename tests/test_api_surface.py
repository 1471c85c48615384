"""Every public top-level function and class of `gradix` has a caller in
the program (`src/`, `scripts/` or `perfbench/`), or is listed below as
API that only the tests use.  A name that nothing calls is dead code: delete
it, or list it here with the reason the tests need it."""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "gradix")

# public names kept for the tests; each is a reference or a predicate
# that a test checks the program's answers with
TEST_FACING = {
    "invsys.contract",  # the contraction action, checked against the dual coordinates
    "invsys.annihilator",  # the annihilator round-trip of the inverse system
    "invsys.monomial_split",  # splitting a monomial ideal at a mixed generator
    "poly.compare_monomials",  # the monomial orders as comparisons
    "poly.homogeneous_components",  # the grading of a polynomial
    "reduc.is_irreducible",  # the theorem's independent check from a Groebner basis
    "reduc.is_graded_irreducible",
}


def _python_files(top):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _definitions():
    """(module, name, line) of every public top-level def and class."""
    out = []
    for path in _python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((module, node.name, node.lineno))
    return out


def _references():
    """Every name the program reads, with where it reads it: identifiers,
    attribute names and imported names, but not the definitions."""
    out = []
    for top in ("src", "scripts", "perfbench"):
        for path in _python_files(os.path.join(ROOT, top)):
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    out.append(node.id)
                elif isinstance(node, ast.Attribute):
                    out.append(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    out.extend(alias.name for alias in node.names)
    return set(out)


def test_every_public_name_has_a_caller_or_is_test_facing():
    used = _references()
    dead = [
        f"{module}.{name} (line {line})"
        for module, name, line in _definitions()
        if name not in used and f"{module}.{name}" not in TEST_FACING
    ]
    assert not dead, "public names nothing in the program calls: " + ", ".join(dead)


def test_every_test_facing_name_exists_and_has_no_caller():
    defined = {f"{module}.{name}" for module, name, _ in _definitions()}
    assert TEST_FACING <= defined, sorted(TEST_FACING - defined)
    used = _references()
    called = sorted(q for q in TEST_FACING if q.split(".")[1] in used)
    assert not called, f"listed as test-facing but called by the program: {called}"
