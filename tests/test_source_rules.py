"""Rules on the package source, read from its syntax trees.

A failed check raises an exception; it is never an `assert`, which
`python -O` strips.  Every exception class in `hallchar.errors` is raised
by some module of the package, so no class there serves the tests alone.
"""

import ast
import inspect
from pathlib import Path

import hallchar
from hallchar import errors

SRC = Path(hallchar.__file__).resolve().parent


def raised_name(node):
    """The name a `raise` statement raises: `X`, `X(...)`, `mod.X` or
    `mod.X(...)`; None for a bare `raise`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return getattr(exc, "id", None)


def test_no_assert_and_every_error_class_is_raised():
    asserts, raised = [], set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                asserts.append(f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.Raise):
                raised.add(raised_name(node))
    assert asserts == [], "a failed check raises an exception; it is never an `assert`"
    classes = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert sorted(classes - raised) == [], "error classes no module raises"


def test_every_module_level_function_has_a_caller():
    """Test-only code lives in the tests: every module-level function of
    the package is referenced by name (an `ast.Name` or `ast.Attribute`)
    somewhere in the package or in hallbench.  An `__all__` entry is a
    string, so it does not count."""
    trees = [
        ast.parse(path.read_text(), str(path))
        for root in (SRC, Path(__file__).resolve().parent.parent / "hallbench")
        for path in sorted(root.rglob("*.py"))
    ]
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = [
        f"{path.relative_to(SRC)}:{node.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name not in referenced
    ]
    assert unused == [], "module-level functions with no caller in src/hallchar or hallbench"
