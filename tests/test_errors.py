"""Every exception class the package exports is one that some code raises."""

from __future__ import annotations

import ast
from pathlib import Path

from subtrees import errors


def _raised_names() -> set[str]:
    """Names raised anywhere in the package, as ``raise X(...)`` or ``raise X``."""
    names = set()
    for source in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_exported_error_has_a_raise_site():
    unraised = set(errors.__all__) - {"SubtreeError"} - _raised_names()
    assert not unraised, f"exception classes with no raise site: {sorted(unraised)}"
