"""The package surface and the README's Python examples."""

from __future__ import annotations

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import subtrees

MODULES = ("trees", "counting", "extremal", "formulas", "majorization", "oracle", "errors")
README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_all_is_the_union_of_the_module_lists():
    # A name folded away in one module cannot survive in another list.
    union = {"__version__"}
    for name in MODULES:
        module = importlib.import_module(f"subtrees.{name}")
        assert len(set(module.__all__)) == len(module.__all__), name
        for attr in module.__all__:
            assert getattr(subtrees, attr) is getattr(module, attr), (name, attr)
        union.update(module.__all__)
    assert len(set(subtrees.__all__)) == len(subtrees.__all__)
    assert set(subtrees.__all__) == union


def test_every_public_definition_is_declared():
    # A module-level def or class without a leading underscore is public,
    # so it is in its module's ``__all__``.
    for name in MODULES:
        module = importlib.import_module(f"subtrees.{name}")
        tree = ast.parse(Path(module.__file__).read_text())
        defined = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        }
        assert defined <= set(module.__all__), (name, defined - set(module.__all__))


def test_package_init_declares_no_public_name():
    # A public name is declared once, in its module's ``__all__``; the
    # package file only re-exports each module with ``*`` and adds its list.
    starred, added, named = [], [], set()
    for node in ast.walk(ast.parse(Path(subtrees.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            assert [alias.name for alias in node.names] == ["*"], node.module
            starred.append(node.module)
        elif isinstance(node, ast.AugAssign):
            assert ast.unparse(node.target) == "__all__"
            assert isinstance(node.value, ast.Attribute) and node.value.attr == "__all__"
            added.append(node.value.value.id)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.alias):
            named.add(node.name)
        elif isinstance(node, ast.Constant):
            named.add(node.value)
    assert sorted(starred) == sorted(added) == sorted(MODULES)
    public = {attr for name in MODULES for attr in importlib.import_module(f"subtrees.{name}").__all__}
    assert not named & public


def commented_value(comment: str):
    """The literal a ``# value, prose`` comment starts with."""
    text = comment.lstrip("#").strip()
    for end in [i for i, ch in enumerate(text) if ch in ",:"] + [len(text)]:
        try:
            return ast.literal_eval(text[:end])
        except (ValueError, SyntaxError):
            continue
    raise AssertionError(f"no literal value in README comment {comment!r}")


def test_readme_python_blocks_run_and_match_their_comments():
    # The blocks run in order in one namespace; an expression line with a
    # comment must evaluate to the literal that the comment starts with.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    namespace: dict = {}
    checked = 0
    for block in blocks:
        comments = {
            tok.start[0]: tok.string
            for tok in tokenize.generate_tokens(io.StringIO(block).readline)
            if tok.type == tokenize.COMMENT
        }
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
                assert value == commented_value(comments[stmt.end_lineno]), ast.unparse(stmt)
                checked += 1
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert len(blocks) == 2 and checked == 9
