"""`tests/desk_set.py` completes at its tiny size. Its bytes are compared
only between two versions of the code, by `diff -r` of two desk sets."""

import csv

import numpy as np

from desk_set import ABLATE, GENERATE, SHAPES, build
from emogen.model import EmoModel


def test_tiny_desk_set_completes(tmp_path):
    build(tmp_path, tiny=True)
    runs = sorted((tmp_path / "runs").iterdir())
    assert len(runs) == len(SHAPES) * 3 * 2  # VA modes x dtypes
    for run in runs:
        written = {path.name for path in run.iterdir()}
        assert {"checkpoint.emc", "loss.csv", "logits.f8", "steps.f8", "grads.f8"} <= written
        assert {f"{name}{ext}" for name in GENERATE for ext in (".mid", ".ids")} <= written
        # one row per greedy step, whose argmax is the id that step chose
        ids = [int(i) for i in (run / "greedy.ids").read_text().split()]
        steps = np.frombuffer((run / "steps.f8").read_bytes(), "<f8").reshape(len(ids) - 1, -1)
        assert np.argmax(steps, axis=1).tolist() == ids[1:]
        # one gradient value per parameter value
        params = EmoModel.load(run / "checkpoint.emc").parameters()
        grads = np.frombuffer((run / "grads.f8").read_bytes(), "<f8")
        assert grads.size == sum(param.data.size for _, param in params)
        assert np.isfinite(grads).all() and grads.any()
    assert {"metrics.csv", "metrics.md", "gradcheck.log"} <= {p.name for p in tmp_path.iterdir()}
    # every generated piece is scored or, at the tiny size, skipped as too short
    last = (tmp_path / "metrics.log").read_text().splitlines()[-1]
    evaluated, _, _, skipped, _ = last.split(maxsplit=4)  # "N pieces evaluated, M skipped -> ..."
    assert int(evaluated) + int(skipped) == len(runs) * len(GENERATE)
    # the ablation grid: the valid variant trains, the invalid one is a failed row
    with open(tmp_path / "ablate" / "ablation.csv", newline="") as fh:
        rows = {row["model"]: row["status"] for row in csv.DictReader(fh)}
    assert rows == {ABLATE[0]["name"]: "ok", ABLATE[1]["name"]: "failed: ConfigError"}
    assert (tmp_path / "ablate" / "ablation.md").is_file()
