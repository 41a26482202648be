"""Whole-file writes that never leave a half-written file behind."""

import csv
import io
import os
from pathlib import Path
from typing import Iterable, Sequence


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` to a temporary file beside `path`, then rename it over
    `path`, so a failure part-way leaves any earlier file at `path` untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Write `rows` as UTF-8 CSV in the csv module's default dialect, atomically."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, [text.getvalue().encode("utf-8")])
