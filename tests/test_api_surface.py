"""Every public name of `gradix` has a caller in the program (`src/`,
`scripts/` or `perfbench/`).  A name that nothing in the program calls is
dead code: delete it, or move it to the tests.

Top-level functions and classes.  A reference counts for the name `x` of
module `m` only when it is bound to that module: `x` imported from `m`
(`from .m import x` or `from gradix.m import x`), read as `m.x` (also
`gradix.m.x` or `gx.m.x`), or used by name inside `m` itself.  A method
or a local of the same name elsewhere does not keep `m.x` alive, and
neither does the re-export in `gradix/__init__.py`: a name that only
`__init__` imports has no caller.

Methods and properties.  Every non-dunder method and property of a public
class must be read as `.name` somewhere in the program.  This rule matches
by name alone, since the class of the object read is not known
statically: a method whose name another class also uses (or any other
attribute of that name) is not caught.  `Ideal.is_zero`, kept alive by
`Polynomial.is_zero`, was such a method and was deleted by hand."""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "gradix")
INIT = os.path.abspath(os.path.join(PACKAGE, "__init__.py"))


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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(module, name, line) of every public top-level def and class, and
    (module, class.method, line) of every non-dunder method and property
    of a public class."""
    names, methods = [], []
    for path in _python_files(PACKAGE):
        module = _module_name(path)
        for node in _parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names.append((module, node.name, node.lineno))
            if isinstance(node, ast.ClassDef):
                methods.extend(
                    (module, f"{node.name}.{item.name}", item.lineno)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)
                )
    return names, methods


def _imported_from(node, own_package):
    """The gradix module an ImportFrom reads from, or None."""
    if node.level == 1 and own_package:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("gradix."):
        return node.module.split(".", 1)[1]
    return None


def _references():
    """Every (module, name) the program reads, resolved as the module
    docstring says, and every attribute name it reads; definitions are
    not references."""
    bound, attributes = set(), set()
    for top in ("src", "scripts", "perfbench"):
        for path in _python_files(os.path.join(ROOT, top)):
            own_package = os.path.dirname(os.path.abspath(path)) == os.path.abspath(PACKAGE)
            own = _module_name(path) if own_package else None
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.ImportFrom):
                    module = _imported_from(node, own_package)
                    if module and os.path.abspath(path) != INIT:
                        bound.update((module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        attributes.add(node.attr)
                    value = node.value
                    if isinstance(value, ast.Name):
                        bound.add((value.id, node.attr))
                    elif isinstance(value, ast.Attribute):
                        bound.add((value.attr, node.attr))
                elif isinstance(node, ast.Name) and own:
                    bound.add((own, node.id))
    return bound, attributes


def test_every_public_name_has_a_caller_bound_to_its_module():
    bound, attributes = _references()
    names, methods = _definitions()
    dead = [f"{module}.{name} (line {line})" for module, name, line in names if (module, name) not in bound]
    dead += [
        f"{module}.{name} (line {line})"
        for module, name, line in methods
        if name.split(".")[1] not in attributes
    ]
    assert not dead, "public names nothing in the program calls: " + ", ".join(dead)
