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
