"""Every name a module of the package imports is used in that module, each
name `emogen.nn` exports is read outside the module that defines it, each
argument rule is written once, and the package needs nothing but numpy and
the standard library.

Deleting a code path tends to leave its imports and exports behind; copying
a check tends to leave one copy behind when the rule changes. All of these
are found with the standard library's `ast`, so they need no linter.
"""

import ast
import re
import sys
from pathlib import Path

import emogen
from emogen import nn

PACKAGE = Path(emogen.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
    read = names_read(tree)
    return {name: line for name, line in imported.items() if name not in read}


def names_read(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def package_sources() -> dict[str, str]:
    """The source of each module of the package, by dotted name, less the
    `__init__.py` files: the imports there are the package's API."""
    return {".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts):
            path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"}


def test_no_unused_imports():
    unexpected = []
    for module, source in package_sources().items():
        unexpected += [(module, name, line) for name, line in unused_imports(source).items()
                       if (module, name) not in ALLOWED]
    assert unexpected == [], "imported but never used (module, name, line)"


def test_finds_unused_imports():
    source = ("import os.path\nimport json\nfrom math import pi, tau\n"
              "from x import y as z\nprint(tau, os.sep)\n")
    assert unused_imports(source) == {"json": 2, "pi": 3, "z": 4}


def unread_exports(exports: dict[str, str], sources: dict[str, str]) -> list[str]:
    """Each name of `exports` (name -> the module that defines it) that no
    module of `sources` (module -> its source) but its own reads."""
    reads = {module: names_read(ast.parse(source)) for module, source in sources.items()}
    return sorted(name for name, home in exports.items()
                  if not any(name in read for module, read in reads.items() if module != home))


def test_nn_exports_have_an_outside_reader():
    exports = {name: getattr(nn, name).__module__ for name in nn.__all__}
    assert unread_exports(exports, package_sources()) == [], \
        "exported by emogen.nn but read only where it is defined"


def test_finds_unread_exports():
    sources = {"pkg.ops": "def f(): pass\ndef g(): return f()\ndef h(): pass\n",
               "pkg.model": "from .ops import g, h\nh.__doc__\nprint(g)\n",
               "pkg.other": "def k(x): return x.f\n"}  # an attribute is not the name
    exports = {"f": "pkg.ops", "g": "pkg.ops", "h": "pkg.ops"}
    assert unread_exports(exports, sources) == ["f"]


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
    for module, source in package_sources().items():
        copies += [(module, what, line) for what, line in rule_copies(source, module)]
    assert copies == [], "hand-written copies of an argument rule (module, what, line)"


def test_finds_rule_copies():
    source = ("def f(x, ids):\n    if type(x) is not int or x < 0:\n        pass\n"
              "    return np.asarray(ids, dtype=np.int64)\n"
              "def _token_ids(ids):\n    return np.asarray(ids, dtype=np.int64)\n")
    assert rule_copies(source, "emogen.model") == [
        ("type(...) is not int", 2), ("np.asarray(..., dtype=np.int64)", 4)]
    assert rule_copies(source, "emogen.errors") == [("np.asarray(..., dtype=np.int64)", 4)]


def outside_imports(source: str) -> list[tuple[str, int]]:
    """Each module that `source` imports from outside the standard library,
    numpy and emogen, with its line; imports inside functions count too."""
    allowed = sys.stdlib_module_names | {"numpy", "emogen"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not relative
            names = [node.module]
        else:
            continue
        found += [(name, node.lineno) for name in names if name.split(".")[0] not in allowed]
    return found


def declared_dependencies(pyproject: str) -> list[str]:
    """The names in `[project]`'s `dependencies` array, versions dropped."""
    array = re.search(r"^dependencies = (\[.*?\])", pyproject, re.MULTILINE | re.DOTALL)
    return [re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in ast.literal_eval(array[1])]


def test_package_needs_only_numpy():
    found = []
    for module, source in package_sources().items():
        found += [(module, name, line) for name, line in outside_imports(source)]
    assert found == [], "imports from outside the standard library and numpy (module, name, line)"
    assert declared_dependencies(PYPROJECT.read_text(encoding="utf-8")) == ["numpy"]


def test_finds_outside_imports():
    source = ("import os.path, numpy.linalg as la\nfrom . import nn\nfrom .x import y\n"
              "from emogen.nn import Tensor\nimport yaml\n"
              "def load(path):\n    from PIL import Image\n    return Image.open(path)\n")
    assert outside_imports(source) == [("yaml", 5), ("PIL", 7)]
    pyproject = ('[project]\nname = "x"\ndependencies = [\n    "numpy>=1.24",\n'
                 '    "Pillow>=9.0",\n]\n\n[project.optional-dependencies]\n'
                 'test = ["pytest>=7"]\n')
    assert declared_dependencies(pyproject) == ["numpy", "Pillow"]
