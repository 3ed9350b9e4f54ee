"""The shared depth-first walk, and the rule that no function of the package
recurses: every tree is walked by search.depth_first."""

import ast
import sys
from pathlib import Path

import weylfan
from weylfan import search
from weylfan.search import depth_first

PACKAGE = Path(weylfan.__file__).parent


def test_preorder_of_a_small_tree():
    tree = {"r": ["a", "b"], "a": ["a1", "a2"], "b": ["b1"], "a1": ["a11"]}
    walked = list(depth_first("r", lambda node: tree.get(node, ())))
    assert walked == ["r", "a", "a1", "a11", "a2", "b", "b1"]


def test_children_are_drawn_one_subtree_at_a_time():
    # each child is decided only after its elder sibling's subtree is walked
    log = []

    def children(node):
        if len(node) < 2:
            for s in "xy":
                log.append("decide " + node + s)
                yield node + s

    for node in depth_first("", children):
        log.append("visit " + node)
    assert log == [
        "visit ",
        "decide x", "visit x", "decide xx", "visit xx", "decide xy", "visit xy",
        "decide y", "visit y", "decide yx", "visit yx", "decide yy", "visit yy",
    ]


def test_depth_beyond_the_recursion_limit():
    depth = 5 * sys.getrecursionlimit()
    walked = depth_first(0, lambda node: (node + 1,) if node < depth else ())
    assert sum(1 for _ in walked) == depth + 1


def test_search_imports_nothing_from_the_package():
    tree = ast.parse(Path(search.__file__).read_text(encoding="utf-8"))
    modules = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        "." * node.level + (node.module or "")
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ]
    assert [m for m in modules if m.startswith(".") or m.split(".")[0] == "weylfan"] == []


def test_no_function_calls_itself():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                by_name = isinstance(callee, ast.Name) and callee.id == fn.name
                by_self = (
                    isinstance(callee, ast.Attribute)
                    and callee.attr == fn.name
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id in ("self", "cls")
                )
                if by_name or by_self:
                    found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {fn.name}")
    assert found == []


def test_package_has_no_assert_statement():
    # python -O strips assert, so a check the package relies on must be explicit
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
