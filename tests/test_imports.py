"""Every name a module of the package imports is used in that module.

Deleting a code path tends to leave its imports behind; this finds them
with the standard library's `ast`, so it needs no linter.
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
