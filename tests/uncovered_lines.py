"""Print every line of `src/emogen` that no tier-1 test executes.

Run from anywhere; extra arguments go to pytest:

    python tests/uncovered_lines.py [pytest args]

It exits 1 when it prints a line, and with pytest's status when a test
fails, so it can gate a CI run. The tier-1 suite runs in this process under
a `sys.settrace` line tracer; the executable lines of each module are the
line numbers of its code objects (`co_lines`), less the body of a top-level
`if __name__ == "__main__":`, which only a script run reaches. Only the
standard library is used for this, no coverage package.
Lines that run only in a subprocess (the perfbench smoke tests, the
fresh-interpreter import checks) count as not executed. pytest does not
collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "emogen"


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from `path`, less the
    body of a top-level `if __name__ == "__main__":`."""
    source = path.read_text(encoding="utf-8")
    code = compile(source, str(path), "exec")
    stack, lines = [code], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines -= set(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


class LineTracer:
    """Records the lines run in files under `prefix`, in every thread, while
    it is entered as a context manager. A code object stops being traced
    once each of its lines has run."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.hit: dict[str, set[int]] = defaultdict(set)
        self.left: dict = {}  # code object -> its lines not yet run

    def __enter__(self) -> "LineTracer":
        threading.settrace(self.on_call)
        sys.settrace(self.on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def on_call(self, frame, event, arg):
        code = frame.f_code
        left = self.left.get(code)
        if left is None:
            left = set()
            if code.co_filename.startswith(self.prefix):
                # the first line is the def, run by the enclosing code
                left = {line for _, _, line in code.co_lines() if line} - {code.co_firstlineno}
            self.left[code] = left
        if not left:
            return None
        hit = self.hit[code.co_filename]

        def on_line(frame, event, arg):
            if event == "line":
                hit.add(frame.f_lineno)
                left.discard(frame.f_lineno)
                if not left:
                    return None
            return on_line

        return on_line


def print_unexecuted(hit: dict[str, set[int]]) -> tuple[int, int]:
    """Print each executable line of the package that is not in `hit` (file
    -> line numbers run) as `path:line: text`; returns (printed, executable)."""
    total = missed = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        text = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        for line in sorted(lines - hit[str(path)]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    return missed, total


def main(argv: list[str]) -> int:
    import pytest  # runs the suite; the tracer itself is stdlib only

    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    with LineTracer(str(PACKAGE) + os.sep) as tracer:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", *argv])
    missed, total = print_unexecuted(tracer.hit)
    print(f"{missed} of {total} executable lines in {PACKAGE.relative_to(ROOT)} "
          f"not executed (pytest exit {int(status)})")
    return int(status) or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
