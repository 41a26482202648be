"""Print every independently settable value of `src/emogen`, by name and as totals.

    python tests/settable_values.py

It lists
- each parameter of a module-level function or a method (`self` and `cls`
  aside), marked `=` when it has a default; functions defined inside other
  functions are closures that no caller outside can set, so they are left out;
- each field of a `@dataclass`;
- each option of every `emogen` subcommand, from `cli.build_parser()`.

The source is read with `ast`, so nothing in it runs except the import of
`emogen.cli` for the parser. The script is informational: it always exits
0. pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emogen"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if ast.unparse(target).split(".")[-1] == "dataclass":
            return True
    return False


def _parameters(func) -> list[tuple[str, bool]]:
    """(name, has a default) for each parameter a caller can pass."""
    args = func.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    out = [(a.arg, i >= first_default) for i, a in enumerate(positional)]
    out += [(a.arg, d is not None) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    out += [(f"*{a.arg}", False) for a in (args.vararg, args.kwarg) if a is not None]
    return [(name, default) for name, default in out if name not in ("self", "cls")]


def source_values(path: Path, module: str):
    """Yield ("param", "module.qual(name)", has_default) and ("field", "module.Class.name", True)."""

    def visit(body, prefix: str):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name, default in _parameters(node):
                    yield "param", f"{prefix}{node.name}({name})", default
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    for stmt in node.body:
                        if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                                and "ClassVar" not in ast.unparse(stmt.annotation)):
                            yield "field", f"{prefix}{node.name}.{stmt.target.id}", True
                yield from visit(node.body, f"{prefix}{node.name}.")

    yield from visit(ast.parse(path.read_text(encoding="utf-8")).body, f"{module}.")


def cli_options() -> list[str]:
    sys.path.insert(0, str(PACKAGE.parent))
    from emogen.cli import build_parser

    out = []
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                out += [f"{command} {max(a.option_strings, key=len) if a.option_strings else a.dest}"
                        for a in sub._actions if not isinstance(a, argparse._HelpAction)]
    return out


def main() -> int:
    totals = {"parameters with a default": 0, "parameters without a default": 0,
              "dataclass fields": 0, "CLI options": 0}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for kind, name, default in source_values(path, module):
            if kind == "field":
                totals["dataclass fields"] += 1
                print(f"field  {name}")
            else:
                totals["parameters with a default" if default else
                       "parameters without a default"] += 1
                print(f"param  {name}{' =' if default else ''}")
    for option in cli_options():
        totals["CLI options"] += 1
        print(f"cli    {option}")
    for label, count in totals.items():
        print(f"{count:5d} {label}")
    print(f"{sum(totals.values()):5d} in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
