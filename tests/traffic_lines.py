"""Print every line of `src/emogen` that neither the desk set nor the
benchmark's workloads execute.

    python tests/traffic_lines.py

In this process, under `uncovered_lines.LineTracer`, it writes
`tests/desk_set.py --tiny` into a temporary directory, then runs each of
`perfbench/run.py`'s workloads (train, generate, corpus) at `--size tiny
--trace 0`. Their output is discarded. Each line that none of them runs is
printed as `path:line: text`, then the count. What is left is mostly error
paths: it is the code that a change deleting code has to account for with
tests rather than with the desk set's `diff -r` or the benchmark. Lines that
run only in a subprocess (the benchmark's import timing) count as not
executed. The script is informational and exits 0; it uses the standard
library only, and pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

from uncovered_lines import PACKAGE, ROOT, LineTracer, print_unexecuted

WORKLOADS = ("train", "generate", "corpus")


def main() -> int:
    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "perfbench")]
    with LineTracer(str(PACKAGE) + os.sep) as tracer:
        import desk_set  # imports emogen, so its module-level lines are traced
        import run as perfbench

        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            desk_set.build(Path(tmp), tiny=True)
            for workload in WORKLOADS:
                perfbench.main(["--workload", workload, "--seed", "1", "--seconds", "0.2",
                                "--trace", "0", "--size", "tiny"])
    missed, total = print_unexecuted(tracer.hit)
    print(f"{missed} of {total} executable lines in {PACKAGE.relative_to(ROOT)} executed by "
          f"neither the tiny desk set nor the tiny {', '.join(WORKLOADS)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
