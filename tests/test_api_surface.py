"""Every public top-level function and class of `gradix` has a caller in
the program (`src/`, `scripts/` or `perfbench/`).  A name that nothing in
the program calls is dead code: delete it, or move it to the tests.

A reference counts for the name `x` of module `m` only when it is bound
to that module: `x` imported from `m` (`from .m import x` or
`from gradix.m import x`), read as `m.x` (also `gradix.m.x` or `gx.m.x`),
or used by name inside `m` itself.  A method or a local of the same name
elsewhere does not keep `m.x` alive."""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "gradix")


def _python_files(top):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _module_name(path):
    return os.path.splitext(os.path.basename(path))[0]


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def _definitions():
    """(module, name, line) of every public top-level def and class."""
    out = []
    for path in _python_files(PACKAGE):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append((_module_name(path), node.name, node.lineno))
    return out


def _imported_from(node, own_package):
    """The gradix module an ImportFrom reads from, or None."""
    if node.level == 1 and own_package:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("gradix."):
        return node.module.split(".", 1)[1]
    return None


def _references():
    """Every (module, name) the program reads, resolved as the module
    docstring says; definitions are not references."""
    out = set()
    for top in ("src", "scripts", "perfbench"):
        for path in _python_files(os.path.join(ROOT, top)):
            own_package = os.path.dirname(os.path.abspath(path)) == os.path.abspath(PACKAGE)
            own = _module_name(path) if own_package else None
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.ImportFrom):
                    module = _imported_from(node, own_package)
                    if module:
                        out.update((module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Attribute):
                    value = node.value
                    if isinstance(value, ast.Name):
                        out.add((value.id, node.attr))
                    elif isinstance(value, ast.Attribute):
                        out.add((value.attr, node.attr))
                elif isinstance(node, ast.Name) and own:
                    out.add((own, node.id))
    return out


def test_every_public_name_has_a_caller_bound_to_its_module():
    used = _references()
    dead = [
        f"{module}.{name} (line {line})"
        for module, name, line in _definitions()
        if (module, name) not in used
    ]
    assert not dead, "public names nothing in the program calls: " + ", ".join(dead)
