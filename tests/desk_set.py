"""Write a desk set: the outputs of `emogen train` and `emogen generate` on a
seeded workspace, for comparing two versions of the code file by file.

    python tests/desk_set.py OUT_DIR [--tiny] [--src DIR]

It builds a workspace of MIDI files, feature files and VA catalogs under
OUT_DIR, pairs and splits it with `emogen pair`, pretrains a VA predictor
with `emogen pretrain-va`, then runs `emogen train` for the default, 2+2
and `decoder_blocks: 0` models, each in VA modes off/hard/soft and in
float32 and float64. From every checkpoint it runs greedy and seeded
temperature `emogen generate`, and writes the generated ids beside the
`.mid` files. From the checkpoint loaded back it writes `logits.f8`, the raw
little-endian float64 bytes of `decode_logits` on a fixed prefix, and
`steps.f8`, those of the cached logits of every step of the greedy piece,
one row per step, as generation computes them, and `grads.f8`, those of
every parameter's gradient of `cce_loss` on the same prefix, in
`parameters()` order (zeros for a parameter that gets none). Then
`emogen metrics` scores every generated `.mid` file (`metrics.csv` and
`metrics.md`), `emogen ablate` runs a grid of two variants, one of them
invalid, into ablate/ (`ablation.csv` and `ablation.md`), and last
`emogen gradcheck` runs its battery, which builds a model from its seed
(`gradcheck.log`). Each command's output goes to a `.log` file
beside what it wrote. Every path is
relative to OUT_DIR, so two desk sets written by two versions of the code
compare with `diff -r`. `--tiny` shrinks the models and the pieces; it
checks only that every command completes. `--src DIR` imports emogen from
the `src/` directory DIR, say another version's checkout, instead of this
one's, so one script writes the desk sets of both versions.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory to write; created if missing")
    parser.add_argument("--tiny", action="store_true", help="small models and pieces")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="the src/ directory to import emogen from (default: this checkout's)")
    return parser.parse_args()


ARGS = arguments() if __name__ == "__main__" else None  # parsed before emogen is imported
sys.path.insert(0, str((ARGS.src if ARGS else SRC).resolve()))

from emogen.cli import main as emogen  # noqa: E402
from emogen.midi_io import MidiPiece, NoteEvent, write_midi  # noqa: E402
from emogen.model import (IMAGE_FEATURE_DIM, DecoderCache, EmoModel,  # noqa: E402
                          write_feature_file)
from emogen.nn import no_grad  # noqa: E402
from emogen.tokenizer import BOS  # noqa: E402
from emogen.training import cce_loss  # noqa: E402

SHAPES = {"default": {}, "2+2": {"encoder_blocks": 2, "decoder_blocks": 2},
          "no-decoder-blocks": {"decoder_blocks": 0}}
TINY_MODEL = {"model_dim": 16, "head_count": 2, "ff_dim": 24, "max_len": 32,
              "time_shift_bins": 8, "velocity_bins": 4}
GENERATE = {"greedy": {"strategy": "greedy", "temperature": 1.0, "seed": 0},
            "temperature": {"strategy": "temperature", "temperature": 0.9, "seed": 5}}
N_MIDIS, N_IMAGES, SPLIT = 6, 8, "4,1,1"
PREFIX = [BOS, 5, 140, 9, 200, 31, 77]  # ids in every desk-set vocabulary
# the second variant is invalid: 3 heads divide neither model_dim 16 nor 128
ABLATE = [{"name": "one-decoder-block", "model": {"decoder_blocks": 1}},
          {"name": "three-heads", "model": {"head_count": 3}}]


def run(log: Path, *argv: str) -> None:
    """`emogen argv`, its stdout and stderr written to `log`; a non-zero exit stops the set."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = emogen(list(argv))
    log.write_text(out.getvalue())
    if code != 0:
        raise SystemExit(f"emogen {' '.join(argv)} exited {code}:\n{out.getvalue()}")


def _catalog(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["id", "path", "valence", "arousal"], *rows])


def workspace(rng: np.random.Generator, max_notes: int) -> None:
    """MIDI and feature files with random VA labels, in ws/."""
    Path("ws").mkdir()
    midis = []
    for i in range(N_MIDIS):
        notes = [NoteEvent(int(onset), int(pitch), int(rng.integers(60, 960)),
                           int(rng.integers(1, 128)))
                 for onset, pitch in zip(np.sort(rng.integers(0, 480 * 16, size=max_notes)),
                                         rng.integers(36, 96, size=max_notes))]
        path = f"ws/piece{i}.mid"
        Path(path).write_bytes(write_midi(MidiPiece(480, tuple(notes))))
        midis.append([f"m{i}", path, *np.round(rng.uniform(1, 9, size=2), 2)])
    images = []
    for i in range(N_IMAGES):
        path = f"ws/img{i}.emf"
        write_feature_file(path, rng.normal(size=IMAGE_FEATURE_DIM))
        images.append([f"i{i}", path, *np.round(rng.uniform(1, 9, size=2), 2)])
    _catalog(Path("ws/midis.csv"), midis)
    _catalog(Path("ws/images.csv"), images)


def cached_steps(model: EmoModel, image: str, ids) -> np.ndarray:
    """The logits row of every step that chose `ids[1:]`, decoded one id at
    a time through a `DecoderCache`, as `EmoModel.generate` does."""
    with no_grad():
        memory, cache = model.memory(image).data.reshape(1, -1), DecoderCache(model)
        return np.concatenate([model._decode_step(memory, np.array([i]), cache)
                               for i in ids[:-1]])


def gradients(model: EmoModel, image: str) -> np.ndarray:
    """Every parameter's gradient of `cce_loss` on PREFIX, teacher-forced, in
    `parameters()` order and flattened; zeros for a parameter that gets none."""
    model.zero_grad()
    ids = np.array(PREFIX)
    cce_loss(model.decode_logits(model.memory(image), ids[:-1]), ids[1:]).backward()
    return np.concatenate([np.zeros(param.data.size) if param.grad is None
                           else param.grad.reshape(-1) for _, param in model.parameters()])


def build(out_dir: Path, tiny: bool = False) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cwd = Path.cwd()
    os.chdir(out_dir)
    try:
        workspace(np.random.default_rng(2024), max_notes=6 if tiny else 40)
        run(Path("pair.log"), "pair", "--images", "ws/images.csv", "--midis", "ws/midis.csv",
            "--out", "ws/pairs.json", "--seed", "1", "--split", SPLIT)
        base_model = TINY_MODEL if tiny else {}
        Path("ws/vocab.json").write_text(json.dumps({"model": base_model}))
        run(Path("pretrain-va.log"), "pretrain-va", "--midis", "ws/midis.csv",
            "--config", "ws/vocab.json", "--out", "ws/va.emc", "--epochs", "20")
        data = {"manifest": "ws/pairs.json", "midi_catalog": "ws/midis.csv",
                "image_catalog": "ws/images.csv", "va_predictor": "ws/va.emc"}
        for shape, overrides in SHAPES.items():
            for mode in ("off", "hard", "soft"):
                for dtype in ("float32", "float64"):
                    run_dir = Path("runs") / f"{shape}-{mode}-{dtype}"
                    run_dir.mkdir(parents=True)
                    config = {"model": {**base_model, **overrides, "dtype": dtype},
                              "train": {"lr": 1e-3, "epochs": 2, "batch_size": 2, "seed": 3,
                                        "va_loss_mode": mode, "lambda_va": 0.5},
                              "data": data}
                    (run_dir / "config.json").write_text(json.dumps(config, indent=1))
                    run(run_dir / "train.log", "train", "--config", str(run_dir / "config.json"),
                        "--out-dir", str(run_dir))
                    checkpoint = run_dir / "checkpoint.emc"
                    model = EmoModel.load(checkpoint)
                    with no_grad():
                        logits = model.decode_logits(model.memory("ws/img0.emf"), PREFIX).data
                    (run_dir / "logits.f8").write_bytes(logits.astype("<f8").tobytes())
                    grads = gradients(model, "ws/img0.emf")
                    (run_dir / "grads.f8").write_bytes(grads.astype("<f8").tobytes())
                    for name, how in GENERATE.items():
                        run(run_dir / f"{name}.log", "generate", "--image", "ws/img0.emf",
                            "--checkpoint", str(checkpoint), "--out", str(run_dir / f"{name}.mid"),
                            *(f"--{key}={value}" for key, value in how.items()))
                        ids = model.generate("ws/img0.emf", **how).ids
                        (run_dir / f"{name}.ids").write_text(" ".join(map(str, ids)) + "\n")
                        if name == "greedy":
                            steps = cached_steps(model, "ws/img0.emf", ids)
                            (run_dir / "steps.f8").write_bytes(steps.astype("<f8").tobytes())
        run(Path("metrics.log"), "metrics", "--midi-dir", "runs", "--out", "metrics.csv",
            "--summary", "metrics.md")
        grid = {"base": {"model": base_model, "data": data,
                         "train": {"lr": 1e-3, "epochs": 2, "batch_size": 2, "seed": 3,
                                   "va_loss_mode": "off"}},
                "variants": ABLATE}
        Path("ws/grid.json").write_text(json.dumps(grid, indent=1))
        run(Path("ablate.log"), "ablate", "--config-grid", "ws/grid.json", "--out-dir", "ablate")
        run(Path("gradcheck.log"), "gradcheck")
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    build(ARGS.out_dir, ARGS.tiny)
