"""The package surface and the README's Python examples."""

from __future__ import annotations

import ast
import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

import pytest

import subtrees
from subtrees.errors import NotATree

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


def test_readme_api_table_lists_every_public_name_once():
    # A name added to ``__all__`` without a row, or a row left behind by a
    # removed name, fails here; each row names its module and what it serves.
    section = README.read_text().split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| (.*\S) \|$", section, re.M)
    names = [name for name, _, _ in rows]
    assert len(names) == len(set(names)), sorted(names)
    assert set(names) == set(subtrees.__all__), set(names) ^ set(subtrees.__all__)
    for name, module, _ in rows:
        if module == "subtrees":
            assert name == "__version__"
        else:
            assert name in importlib.import_module(f"subtrees.{module}").__all__, (name, module)


# A valid value for every parameter of a public function that takes a
# ``Tree``, other than the tree, on the 2-vertex tree.
TREE_FUNCTION_ARGUMENTS = {
    "root": 0,
    "u": 0,
    "v": 1,
    "x": 0,
    "y": 1,
    "x_child_set": (),
    "y_child_set": (),
    "vertices": [0],
}


@pytest.mark.parametrize("value", [0, None, "text"])
def test_every_tree_parameter_refuses_a_value_that_is_not_a_tree(value):
    # Each function once ended in AttributeError here.  A generator, such
    # as connected_subsets, is run to its first item.
    tree = subtrees.tree_from_edges(2, [(0, 1)])
    checked = []
    for name in subtrees.__all__:
        function = getattr(subtrees, name)
        if not inspect.isfunction(function):
            continue
        params = inspect.signature(function).parameters
        trees = [p for p in params if params[p].annotation == "Tree"]
        for bad in trees:
            args = {
                p: value if p == bad else tree if p in trees else TREE_FUNCTION_ARGUMENTS[p]
                for p in params
            }
            with pytest.raises(NotATree, match=f"^expected a Tree, got {type(value).__name__}$"):
                result = function(**args)
                if inspect.isgenerator(result):
                    next(result)
            checked.append(name)
    assert len(checked) == 17, checked  # 16 functions; is_isomorphic takes two trees


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
