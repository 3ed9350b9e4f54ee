"""The shared depth-first walk, the rule that no function of the package
recurses (every tree is walked by search.depth_first), the rule that only
the CLI renders output, the rule that no module imports dataclasses, and
the audit that every public name of the package has a caller."""

import ast
import importlib
import sys
from pathlib import Path

import weylfan
from weylfan import search
from weylfan.search import depth_first

PACKAGE = Path(weylfan.__file__).parent
TRACE_CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "trace_child.py"

# Public names that no module of the package names, each with its reason.
UNCALLED = {
    # the flat tests check every ensemble's ray set against this
    # intersection of hyperplane ray sets
    "rays_of",
    # the chain tests check enumerated chains against this definition;
    # face_from_chain sorts its points once and compares them in place
    "is_chain",
}


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


def test_only_the_cli_renders_output():
    # the other modules compute; incidence.adjacency_dot builds a string
    # and writes nothing
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path == PACKAGE / "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                for name in names
                if name in ("print", "json.dumps", "sys.stdout")
                or name.split(".")[0] == "csv"
            ]
    assert found == []


def test_no_module_imports_dataclasses():
    # records derive from record.Record: importing dataclasses and defining
    # a dataclass both cost every process start-up time
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] == "dataclasses"
            ]
    assert found == []


def _benchmark_layers():
    """The LAYERS table of the benchmark tracer, read from its source."""
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            t.id for t in node.targets if isinstance(t, ast.Name)
        ] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise LookupError(f"no LAYERS table in {TRACE_CHILD}")


def test_benchmark_layer_names_resolve():
    missing = [
        f"{layer}.{name}"
        for layer, names in _benchmark_layers().items()
        for name in names
        if not hasattr(importlib.import_module("weylfan." + layer), name)
    ]
    assert missing == []


def test_every_public_name_has_a_caller():
    trees = {
        path.relative_to(PACKAGE): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    named |= {name for names in _benchmark_layers().values() for name in names}
    uncalled = [
        f"{path}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in named | UNCALLED
    ]
    assert uncalled == []
