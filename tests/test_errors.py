import ast
from pathlib import Path

import polydet
from polydet import errors
from polydet.errors import PolydetError


def _raised_names(source: str) -> set:
    """The names of the exceptions that a ``raise`` of the source makes,
    called or not: ``raise E(...)``, ``raise E`` or ``raise errors.E(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_type_is_raised():
    # an error type outlives its use when its last raise goes: each
    # subclass of PolydetError in errors.py is raised in another module
    types = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, PolydetError)
             and obj is not PolydetError and obj.__module__ == errors.__name__}
    assert types
    package = Path(polydet.__file__).parent
    raised = set().union(*(_raised_names(path.read_text(encoding="utf-8"))
                           for path in package.glob("*.py") if path.name != "errors.py"))
    assert sorted(types - raised) == []
