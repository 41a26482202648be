"""Every name a module of the package imports is used in that module, and
each argument rule is written once.

Deleting a code path tends to leave its imports behind; copying a check
tends to leave one copy behind when the rule changes. Both are found with
the standard library's `ast`, so they need no linter.
"""

import ast
from pathlib import Path

import emogen

PACKAGE = Path(emogen.__file__).resolve().parent

# perfbench/tracing.py times softmax by patching the name `softmax` in the
# modules that look it up, `emogen.nn.layers` among them, so that import stays
ALLOWED = {("emogen.nn.layers", "softmax")}


def unused_imports(source: str) -> dict[str, int]:
    """Each name an import in `source` binds but no code reads, with its line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in read}


def test_no_unused_imports():
    unexpected = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":  # imports there are the package's API
            continue
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        unexpected += [(module, name, line) for name, line
                       in unused_imports(path.read_text(encoding="utf-8")).items()
                       if (module, name) not in ALLOWED]
    assert unexpected == [], "imported but never used (module, name, line)"


def test_finds_unused_imports():
    source = ("import os.path\nimport json\nfrom math import pi, tau\n"
              "from x import y as z\nprint(tau, os.sep)\n")
    assert unused_imports(source) == {"json": 2, "pi": 3, "z": 4}


def rule_copies(source: str, module: str) -> list[tuple[str, int]]:
    """Each place in `source` that writes an argument rule out by hand, as
    (what, line): a `type(...) is not int` test outside `emogen.errors`
    (`check_int` is the rule), or an `np.asarray(..., dtype=np.int64)` id
    conversion outside `_token_ids`, which checks ids where a cast would
    truncate them."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Compare) and module != "emogen.errors"
                and isinstance(node.left, ast.Call) and ast.unparse(node.left.func) == "type"
                and any(isinstance(op, ast.IsNot) and ast.unparse(right) == "int"
                        for op, right in zip(node.ops, node.comparators))):
            found.append(("type(...) is not int", node.lineno))
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.asarray"
                and function != "_token_ids"
                and any(k.arg == "dtype" and ast.unparse(k.value) == "np.int64"
                        for k in node.keywords)):
            found.append(("np.asarray(..., dtype=np.int64)", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_argument_rules_are_written_once():
    copies = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        copies += [(module, what, line) for what, line
                   in rule_copies(path.read_text(encoding="utf-8"), module)]
    assert copies == [], "hand-written copies of an argument rule (module, what, line)"


def test_finds_rule_copies():
    source = ("def f(x, ids):\n    if type(x) is not int or x < 0:\n        pass\n"
              "    return np.asarray(ids, dtype=np.int64)\n"
              "def _token_ids(ids):\n    return np.asarray(ids, dtype=np.int64)\n")
    assert rule_copies(source, "emogen.model") == [
        ("type(...) is not int", 2), ("np.asarray(..., dtype=np.int64)", 4)]
    assert rule_copies(source, "emogen.errors") == [("np.asarray(..., dtype=np.int64)", 4)]
