import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from emogen import cli
from emogen.cli import main
from emogen.config import MetricConfig, RunConfig
from emogen.errors import ConfigError, EmogenError
from emogen.metrics import evaluate_piece
from emogen.midi_io import MidiPiece, NoteEvent, parse_midi, write_midi
from emogen.model import (IMAGE_FEATURE_DIM, EmoModel, ModelConfig,
                           load_va_predictor, save_checkpoint, write_feature_file)
from emogen.pairing import load_manifest
from emogen.tokenizer import EOS
from emogen.training import fit

from test_readers_fuzz import OVERFLOW_CHECKPOINT

SMALL_MODEL = {"encoder_blocks": 1, "decoder_blocks": 1, "model_dim": 16,
               "head_count": 2, "ff_dim": 24, "max_len": 32,
               "time_shift_bins": 8, "velocity_bins": 4, "seed": 0}


def _long_piece(rng, beats=10):
    notes = []
    for i in range(beats):
        for p in sorted(rng.choice(np.arange(48, 84), size=int(rng.integers(1, 3)),
                                   replace=False)):
            notes.append(NoteEvent(i * 480, int(p), 480, 64))
    return MidiPiece(480, tuple(notes))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Catalogs, MIDI files, feature files, manifest, and a run config."""
    root = tmp_path_factory.mktemp("ws")
    rng = np.random.default_rng(0)

    midi_rows = [["id", "path", "valence", "arousal"]]
    for i, va in enumerate([(2.0, 3.0), (7.0, 6.5)]):
        path = root / f"piece{i}.mid"
        path.write_bytes(write_midi(_long_piece(rng)))
        midi_rows.append([f"m{i}", str(path), *va])
    image_rows = [["id", "path", "valence", "arousal"]]
    for i, va in enumerate([(2.5, 3.5), (6.8, 6.0), (5.0, 5.0)]):
        path = root / f"img{i}.emf"
        write_feature_file(path, rng.normal(size=IMAGE_FEATURE_DIM))
        image_rows.append([f"i{i}", str(path), *va])

    for name, rows in (("midis.csv", midi_rows), ("images.csv", image_rows)):
        with open(root / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    manifest = root / "pairs.json"
    assert main(["pair", "--images", str(root / "images.csv"),
                 "--midis", str(root / "midis.csv"),
                 "--out", str(manifest), "--seed", "1", "--split", "2,0,0"]) == 0

    config = {"model": SMALL_MODEL,
              "train": {"lr": 1e-3, "epochs": 2, "batch_size": 2, "seed": 0,
                        "va_loss_mode": "off"},
              "data": {"manifest": str(manifest),
                       "midi_catalog": str(root / "midis.csv"),
                       "image_catalog": str(root / "images.csv")}}
    (root / "run.json").write_text(json.dumps(config))
    return root


class TestPair:
    def test_nearest_pairing(self, workspace):
        manifest = load_manifest(workspace / "pairs.json")
        assert {(p["midi_id"], p["image_id"]) for p in manifest.pairs} == \
            {("m0", "i0"), ("m1", "i1")}
        assert manifest.split_counts() == {"train": 2}

    def test_deterministic(self, workspace, tmp_path):
        out = tmp_path / "again.json"
        assert main(["pair", "--images", str(workspace / "images.csv"),
                     "--midis", str(workspace / "midis.csv"),
                     "--out", str(out), "--seed", "1", "--split", "2,0,0"]) == 0
        assert out.read_bytes() == (workspace / "pairs.json").read_bytes()

    def test_seed_recorded_without_split(self, workspace, tmp_path):
        out = tmp_path / "pairs.json"
        assert main(["pair", "--images", str(workspace / "images.csv"),
                     "--midis", str(workspace / "midis.csv"),
                     "--out", str(out), "--seed", "7"]) == 0
        manifest = load_manifest(out)
        assert manifest.seed == 7 and manifest.split_counts() == {"": 2}  # no split tags

    def test_negative_seed_without_split_exit_1(self, workspace, tmp_path, capsys):
        # the manifest was written with "seed": -1, and it loaded
        out = tmp_path / "pairs.json"
        assert main(["pair", "--images", str(workspace / "images.csv"),
                     "--midis", str(workspace / "midis.csv"),
                     "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error [ConfigError]")
        assert not out.exists()

    def test_train_on_unsplit_manifest_names_both_fixes(self, workspace, tmp_path, capsys):
        out = tmp_path / "pairs.json"
        assert main(["pair", "--images", str(workspace / "images.csv"),
                     "--midis", str(workspace / "midis.csv"), "--out", str(out)]) == 0
        train = _train_with(workspace, tmp_path, data={"manifest": str(out)})
        assert main(train) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [MissingArtifacts]") and "{'': 2}" in err
        assert "emogen pair --split" in err and "data.split" in err
        assert main(_train_with(workspace, tmp_path, data={"manifest": str(out), "split": ""})) == 0

    def test_bad_split_counts_exit_1(self, workspace, tmp_path):
        code = main(["pair", "--images", str(workspace / "images.csv"),
                     "--midis", str(workspace / "midis.csv"),
                     "--out", str(tmp_path / "x.json"), "--split", "5,1,1"])
        assert code == 1

    def test_malformed_split_exit_1(self, workspace, tmp_path):
        # not integers; not three counts; a negative count that sums to the 2 pairs;
        # a negative seed, which would shuffle as its absolute value does
        for args in (["--split", "two,0,0"], ["--split", "1,2"], ["--split", "1,2,-1"],
                     ["--split", "2,0,0", "--seed", "-1"]):
            code = main(["pair", "--images", str(workspace / "images.csv"),
                         "--midis", str(workspace / "midis.csv"),
                         "--out", str(tmp_path / "x.json"), *args])
            assert code == 1
            assert not (tmp_path / "x.json").exists()

    def test_missing_catalog_exit_2(self, tmp_path):
        code = main(["pair", "--images", str(tmp_path / "none.csv"),
                     "--midis", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 2


@pytest.fixture(scope="module")
def run_dir(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--config", str(workspace / "run.json"),
                 "--out-dir", str(out)]) == 0
    return out


class TestTrainGenerate:
    def test_artifacts_written(self, run_dir):
        assert (run_dir / "checkpoint.emc").exists()
        assert (run_dir / "run_config.json").exists()
        lines = (run_dir / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,l_cc,l_va,l_total" and len(lines) == 3

    def test_echoed_config_is_loadable(self, run_dir):
        payload = json.loads((run_dir / "run_config.json").read_text())
        assert payload["model"]["model_dim"] == 16
        assert payload["train"]["lambda_cc"] == 1.0

    def test_generate_deterministic(self, workspace, run_dir, tmp_path):
        outs = []
        for name in ("a.mid", "b.mid"):
            out = tmp_path / name
            assert main(["generate", "--image", str(workspace / "img0.emf"),
                         "--checkpoint", str(run_dir / "checkpoint.emc"),
                         "--out", str(out), "--max-len", "16"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        parse_midi(outs[0])  # generated file is a valid SMF

    def test_generate_zero_temperature_exit_1(self, workspace, run_dir, tmp_path, capsys):
        assert main(["generate", "--image", str(workspace / "img0.emf"),
                     "--checkpoint", str(run_dir / "checkpoint.emc"),
                     "--out", str(tmp_path / "a.mid"), "--strategy", "temperature",
                     "--temperature", "0"]) == 1
        assert "ConfigError" in capsys.readouterr().err
        assert not (tmp_path / "a.mid").exists()

    def test_generate_infinite_temperature_exit_1(self, workspace, run_dir, tmp_path, capsys):
        # an infinite temperature sampled every id alike, and exited 0
        assert main(["generate", "--image", str(workspace / "img0.emf"),
                     "--checkpoint", str(run_dir / "checkpoint.emc"),
                     "--out", str(tmp_path / "a.mid"), "--strategy", "temperature",
                     "--temperature", "inf"]) == 1
        assert capsys.readouterr().err.startswith("error [ConfigError]")
        assert not (tmp_path / "a.mid").exists()

    def test_generate_negative_seed_exit_1(self, workspace, run_dir, tmp_path, capsys):
        assert main(["generate", "--image", str(workspace / "img0.emf"),
                     "--checkpoint", str(run_dir / "checkpoint.emc"),
                     "--out", str(tmp_path / "a.mid"), "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ConfigError]") and "Traceback" not in err
        assert not (tmp_path / "a.mid").exists()

    def test_generate_corrupt_metadata_exit_2(self, workspace, tmp_path, capsys):
        model = EmoModel(ModelConfig.from_dict(SMALL_MODEL))
        checkpoint = tmp_path / "model.emc"
        save_checkpoint(checkpoint, {"kind": "emomodel", "vocab_hash": model.vocab.vocab_hash},
                        model.parameters())
        assert main(["generate", "--image", str(workspace / "img0.emf"),
                     "--checkpoint", str(checkpoint), "--out", str(tmp_path / "a.mid")]) == 2
        assert "CheckpointCorrupt" in capsys.readouterr().err

    def test_generate_overflowing_block_shape_exit_2(self, workspace, tmp_path, capsys):
        checkpoint = tmp_path / "model.emc"
        checkpoint.write_bytes(OVERFLOW_CHECKPOINT)
        assert main(["generate", "--image", str(workspace / "img0.emf"),
                     "--checkpoint", str(checkpoint), "--out", str(tmp_path / "a.mid")]) == 2
        err = capsys.readouterr().err
        assert "CheckpointCorrupt" in err and "Traceback" not in err

    def test_unknown_config_key_exit_1(self, workspace, tmp_path):
        payload = json.loads((workspace / "run.json").read_text())
        payload["optimizer"] = "sgd"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["train", "--config", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 1

    def test_missing_manifest_exit_1(self, workspace, tmp_path):
        payload = json.loads((workspace / "run.json").read_text())
        payload["data"]["manifest"] = str(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["train", "--config", str(bad),
                     "--out-dir", str(tmp_path / "out")]) == 1

    def test_non_finite_loss_exit_2_without_checkpoint(self, workspace, tmp_path,
                                                       monkeypatch, capsys):
        class PoisonedModel(EmoModel):
            def __init__(self, config):
                super().__init__(config)
                self.out_proj.bias.data[0] = np.nan

        monkeypatch.setattr(cli, "EmoModel", PoisonedModel)
        out = tmp_path / "out"
        assert main(["train", "--config", str(workspace / "run.json"),
                     "--out-dir", str(out)]) == 2
        assert "NonFiniteError" in capsys.readouterr().err
        assert not (out / "checkpoint.emc").exists()

    def test_non_finite_weights_exit_2_without_checkpoint(self, workspace, tmp_path,
                                                          monkeypatch, capsys):
        """Weights that overflow while every loss stays finite (as a huge
        learning rate does) are refused at the checkpoint."""
        def overflowing_fit(model, *args, **kwargs):
            history = fit(model, *args, **kwargs)
            model.out_proj.weight.data[0, 0] = np.inf
            return history

        monkeypatch.setattr(cli, "fit", overflowing_fit)
        out = tmp_path / "out"
        assert main(["train", "--config", str(workspace / "run.json"),
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "NonFiniteError" in err and "out_proj.weight" in err
        assert not (out / "checkpoint.emc").exists()


    @pytest.mark.parametrize("eos_bias, stop, length", [(1e4, "eos", 2), (-1e4, "max_len", 6)])
    def test_generate_prints_stop_reason(self, workspace, tmp_path, capsys,
                                         eos_bias, stop, length):
        model = EmoModel(ModelConfig.from_dict(SMALL_MODEL))
        model.out_proj.bias.data[EOS] = eos_bias
        model.save(tmp_path / "model.emc")
        assert main(["generate", "--image", str(workspace / "img0.emf"), "--checkpoint",
                     str(tmp_path / "model.emc"), "--out", str(tmp_path / "a.mid"),
                     "--max-len", "6"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{tmp_path / 'a.mid'}: {length} tokens, ")
        assert out.endswith(f" notes (stopped at {stop})\n")

    def test_interrupted_generate_keeps_previous_file(self, workspace, run_dir, tmp_path,
                                                      monkeypatch, capsys):
        args = ["generate", "--image", str(workspace / "img0.emf"),
                "--checkpoint", str(run_dir / "checkpoint.emc"), "--out", str(tmp_path / "a.mid")]
        assert main(args + ["--max-len", "16"]) == 0
        before = (tmp_path / "a.mid").read_bytes()
        _fail_renames(monkeypatch, "a.mid")
        assert main(args + ["--strategy", "temperature", "--seed", "5"]) == 2
        assert "interrupted" in capsys.readouterr().err
        assert (tmp_path / "a.mid").read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["a.mid"]


class TestPretrainVa:
    def test_pretrain_writes_loadable_predictor(self, workspace, tmp_path):
        config = {"model": SMALL_MODEL}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "va.emc"
        assert main(["pretrain-va", "--midis", str(workspace / "midis.csv"),
                     "--config", str(cfg_path), "--out", str(out),
                     "--epochs", "5"]) == 0
        predictor = load_va_predictor(out, ModelConfig(**SMALL_MODEL).vocabulary().vocab_hash)
        point = predictor.predict_va([1, 5, 5, 2])
        assert 1.0 <= point.valence <= 9.0

    @pytest.mark.parametrize("flag, value", [("--epochs", "0"), ("--epochs", "-3"),
                                             ("--lr", "0"), ("--lr", "-1"), ("--lr", "nan"),
                                             ("--seed", "-1"), ("--lr", "inf")])
    def test_non_positive_epochs_or_lr_exit_1(self, workspace, tmp_path, capsys, flag, value):
        out = tmp_path / "va.emc"
        assert main(["pretrain-va", "--midis", str(workspace / "midis.csv"),
                     "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith("error [ConfigError]")
        assert not out.exists()


class TestMetrics:
    def test_rows_match_module(self, tmp_path):
        rng = np.random.default_rng(5)
        midi_dir = tmp_path / "midis"
        midi_dir.mkdir()
        pieces = [_long_piece(rng) for _ in range(3)]
        for i, piece in enumerate(pieces):
            (midi_dir / f"p{i}.mid").write_bytes(write_midi(piece))
        # one degenerate file that must be skipped, not fatal
        (midi_dir / "short.mid").write_bytes(
            write_midi(MidiPiece(480, (NoteEvent(0, 60, 480, 64),))))
        out = tmp_path / "metrics.csv"
        summary = tmp_path / "metrics.md"
        assert main(["metrics", "--midi-dir", str(midi_dir),
                     "--out", str(out), "--summary", str(summary)]) == 0

        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 and rows[-1]["path"] == "MEAN"
        for row, piece in zip(rows, pieces):
            triple, loss = evaluate_piece(piece)
            assert float(row["pitch_entropy"]) == pytest.approx(triple.pitch_entropy, abs=1e-6)
            assert float(row["music_quality_loss"]) == pytest.approx(loss, abs=1e-6)
        assert summary.read_text().startswith("| Model | Music_Quality_Loss |")

    def test_corrupt_file_skipped(self, tmp_path, capsys):
        midi_dir = tmp_path / "midis"
        midi_dir.mkdir()
        good = write_midi(_long_piece(np.random.default_rng(6)))
        (midi_dir / "good.mid").write_bytes(good)
        corrupt = bytearray(good)
        corrupt[corrupt.index(bytes([0x90])) + 2] = 0xC0  # velocity byte >= 0x80
        (midi_dir / "corrupt.mid").write_bytes(bytes(corrupt))
        out = tmp_path / "metrics.csv"
        assert main(["metrics", "--midi-dir", str(midi_dir), "--out", str(out)]) == 0
        assert "corrupt.mid: MalformedEvent" in capsys.readouterr().err
        with open(out) as fh:
            assert [row["path"] for row in csv.DictReader(fh)] == \
                [str(midi_dir / "good.mid"), "MEAN"]

    def test_every_file_skipped_writes_nan_mean(self, tmp_path, capsys):
        midi_dir = tmp_path / "midis"
        midi_dir.mkdir()
        (midi_dir / "short.mid").write_bytes(
            write_midi(MidiPiece(480, (NoteEvent(0, 60, 480, 64),))))
        out = tmp_path / "metrics.csv"
        assert main(["metrics", "--midi-dir", str(midi_dir), "--out", str(out)]) == 0
        assert "short.mid: TooShort" in capsys.readouterr().err
        with open(out) as fh:
            assert list(csv.reader(fh))[1:] == [["MEAN", "nan", "nan", "nan", "nan"]]

    def test_empty_dir_exit_1(self, tmp_path):
        assert main(["metrics", "--midi-dir", str(tmp_path),
                     "--out", str(tmp_path / "m.csv")]) == 1

    @pytest.mark.parametrize("target", ["m.csv", "m.md"])
    def test_interrupted_write_keeps_previous_files(self, tmp_path, monkeypatch, target):
        midi_dir = tmp_path / "midis"
        midi_dir.mkdir()
        (midi_dir / "a.mid").write_bytes(write_midi(_long_piece(np.random.default_rng(8))))
        args = ["metrics", "--midi-dir", str(midi_dir), "--out", str(tmp_path / "m.csv"),
                "--summary", str(tmp_path / "m.md")]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        (midi_dir / "b.mid").write_bytes(write_midi(_long_piece(np.random.default_rng(9))))
        _fail_renames(monkeypatch, target)
        assert main(args) == 2
        assert (tmp_path / target).read_bytes() == before[target]
        assert {p.name for p in tmp_path.iterdir() if p.is_file()} == set(before)


class TestGradcheck:
    def test_exit_zero(self, capsys):
        assert main(["gradcheck"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert [row[0] for row in rows] == [
            "linear", "embedding", "layer_norm", "attention",
            "decoder_block", "cce", "soft_va_loss", "full_model"]
        assert all(row[-1] == "ok" for row in rows)

    def test_infinite_tolerance_exit_1(self, capsys):
        # every block passed at an infinite tolerance
        assert main(["gradcheck", "--tolerance", "inf"]) == 1
        out, err = capsys.readouterr()
        assert err.startswith("error [ConfigError]") and out == ""


class TestAblate:
    def test_grid_with_failure_continues(self, workspace, tmp_path):
        grid = {
            "base": json.loads((workspace / "run.json").read_text()),
            "variants": [
                {"name": "dec1", "model": {"decoder_blocks": 1}},
                {"name": "broken", "model": {"image_extractor": "bogus"}},
                {"name": "dec0", "model": {"decoder_blocks": 0}},
            ],
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out_dir = tmp_path / "ablation"
        assert main(["ablate", "--config-grid", str(grid_path),
                     "--out-dir", str(out_dir)]) == 0

        with open(out_dir / "ablation.csv") as fh:
            rows = {r["model"]: r for r in csv.DictReader(fh)}
        assert rows["dec1"]["status"] == "ok"
        assert rows["dec0"]["status"] == "ok"
        assert rows["broken"]["status"].startswith("failed")
        table = (out_dir / "ablation.md").read_text()
        assert table.count("\n") == 5  # header + divider + three variants
        assert (out_dir / "dec1" / "checkpoint.emc").exists()

    def test_scores_match_generated_files(self, workspace, tmp_path):
        base = json.loads((workspace / "run.json").read_text())
        base["metrics"] = {"steps_per_measure": 2}
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"base": base, "variants": [
            {"name": "dec1"}, {"name": "dec0", "model": {"decoder_blocks": 0}}]}))
        out_dir = tmp_path / "ablation"
        assert main(["ablate", "--config-grid", str(grid_path),
                     "--out-dir", str(out_dir)]) == 0
        with open(out_dir / "ablation.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["model"] for row in rows] == ["dec1", "dec0"]
        for row in rows:
            losses = []
            for path in sorted((out_dir / row["model"] / "generated").glob("*.mid")):
                try:
                    losses.append(evaluate_piece(parse_midi(path.read_bytes()),
                                                 steps_per_measure=2)[1])
                except EmogenError:
                    continue  # too short or empty; the sweep skips it too
            assert int(row["evaluated_pieces"]) == len(losses)
            mean = sum(losses) / len(losses) if losses else math.nan
            assert row["music_quality_loss"] == f"{mean:.6f}"
        assert sum(int(row["evaluated_pieces"]) for row in rows) > 0

    def test_empty_grid_exit_1(self, tmp_path):
        # also a grid with a top-level key other than base and variants
        for grid in ({"base": {}, "variants": []}, {"base": {}, "variants": [{}], "seed": 1}):
            grid_path = tmp_path / "grid.json"
            grid_path.write_text(json.dumps(grid))
            assert main(["ablate", "--config-grid", str(grid_path),
                         "--out-dir", str(tmp_path / "out")]) == 1

    def test_missing_grid_exit_1(self, tmp_path, capsys):
        assert main(["ablate", "--config-grid", str(tmp_path / "none.json"),
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ConfigError]") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


# Each bad config section ends in ConfigError: the library raises it, `train`
# and `pretrain-va` exit 1, and as an ablation variant (model/train only) it is
# recorded as a failed row while the sweep exits 0.
BAD_SECTIONS = [
    ("model", {"time_shift_bins": 0}),
    ("model", {"bogus": 1}),
    ("model", {"model_dim": "x"}),
    ("model", {"model_dim": -16}),
    ("model", [1]),
    ("model", {"image_size": 6}),
    ("model", {"seed": -1}),
    ("train", {"lr": "x"}),
    ("train", {"epochs": 2.5}),
    ("train", {"lr": 0}),
    ("train", {"epochs": 0}),
    ("train", {"lambda_va": -1}),
    ("train", {"seed": -1}),
    ("metrics", {"steps_per_beat": "x"}),
    ("data", {"split": None}),
]
# JSON's NaN and Infinity, which Python's json module reads
NON_FINITE = [("train", {"lr": float("nan")}), ("train", {"lambda_va": float("inf")})]
# every model encodes [BOS]; context is no longer a setting
REMOVED_SETTINGS = [("model", {"context": "fixed"})]


def _with_section(workspace, section, value):
    payload = json.loads((workspace / "run.json").read_text())
    if isinstance(value, dict):
        payload.setdefault(section, {}).update(value)
    else:
        payload[section] = value
    return payload


BAD_CASES = BAD_SECTIONS + NON_FINITE + REMOVED_SETTINGS
BAD_IDS = [f"{section}={json.dumps(value)}" for section, value in BAD_CASES]


@pytest.mark.parametrize("section, value", BAD_CASES, ids=BAD_IDS)
class TestBadConfig:
    def test_library_raises_config_error(self, workspace, section, value):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(_with_section(workspace, section, value))

    @pytest.mark.parametrize("command", ["train", "pretrain-va"])
    def test_command_exit_1(self, workspace, tmp_path, capsys, section, value, command):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(_with_section(workspace, section, value)))
        args = (["--out-dir", str(tmp_path / "out")] if command == "train" else
                ["--midis", str(workspace / "midis.csv"), "--out", str(tmp_path / "va.emc")])
        assert main([command, "--config", str(cfg_path), *args]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "Traceback" not in err


def _fail_renames(monkeypatch, prefix):
    """Make the final rename of every atomic write to a `prefix`* file fail."""
    rename = os.replace

    def replace(src, dst):
        if Path(dst).name.startswith(prefix):
            raise OSError("interrupted")
        rename(src, dst)
    monkeypatch.setattr("emogen._files.os.replace", replace)


def test_manifest_id_not_string_exit_2(workspace, tmp_path, capsys):
    manifest = json.loads((workspace / "pairs.json").read_text())
    manifest["pairs"][0]["midi_id"] = [manifest["pairs"][0]["midi_id"]]
    (tmp_path / "pairs.json").write_text(json.dumps(manifest))
    payload = json.loads((workspace / "run.json").read_text())
    payload["data"]["manifest"] = str(tmp_path / "pairs.json")
    (tmp_path / "run.json").write_text(json.dumps(payload))
    assert main(["train", "--config", str(tmp_path / "run.json"),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "CatalogError" in err and "Traceback" not in err


def _midi_catalog_at(workspace, tmp_path, midi_path):
    """A copy of the MIDI catalog whose first row points at `midi_path`."""
    with open(workspace / "midis.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][1] = str(midi_path)
    with open(tmp_path / "midis.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return tmp_path / "midis.csv"


def _train_with(workspace, tmp_path, data=None, pair=None, train=None):
    """`train` args for the workspace config with `data` and `train` keys and
    manifest pair 0's keys replaced."""
    payload = json.loads((workspace / "run.json").read_text())
    payload["data"].update(data or {})
    payload["train"].update(train or {})
    if pair:
        manifest = json.loads((workspace / "pairs.json").read_text())
        manifest["pairs"][0].update(pair)
        (tmp_path / "pairs.json").write_text(json.dumps(manifest))
        payload["data"]["manifest"] = str(tmp_path / "pairs.json")
    (tmp_path / "run.json").write_text(json.dumps(payload))
    return ["train", "--config", str(tmp_path / "run.json"), "--out-dir", str(tmp_path / "out")]


# Each missing input of `train` and `pretrain-va` is a MissingArtifacts (exit 1).
MISSING_ARTIFACT_CASES = {
    "train-missing-midi": lambda ws, tmp: _train_with(ws, tmp, data={
        "midi_catalog": str(_midi_catalog_at(ws, tmp, tmp / "none.mid"))}),
    "train-unreadable-midi": lambda ws, tmp: _train_with(ws, tmp, data={
        "midi_catalog": str(_midi_catalog_at(ws, tmp, tmp))}),  # a directory
    "train-unset-manifest": lambda ws, tmp: _train_with(ws, tmp, data={"manifest": ""}),
    "train-unknown-midi-id": lambda ws, tmp: _train_with(ws, tmp, pair={"midi_id": "m9"}),
    "train-unknown-image-id": lambda ws, tmp: _train_with(ws, tmp, pair={"image_id": "i9"}),
    "train-va-without-predictor": lambda ws, tmp: _train_with(
        ws, tmp, train={"va_loss_mode": "hard"}),
    "pretrain-va-missing-midi": lambda ws, tmp: [
        "pretrain-va", "--midis", str(_midi_catalog_at(ws, tmp, tmp / "none.mid")),
        "--out", str(tmp / "va.emc")],
}


@pytest.mark.parametrize("case", list(MISSING_ARTIFACT_CASES))
def test_missing_artifact_exit_1(workspace, tmp_path, capsys, case):
    assert main(MISSING_ARTIFACT_CASES[case](workspace, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [MissingArtifacts]") and "Traceback" not in err
    assert not (tmp_path / "out" / "checkpoint.emc").exists()
    assert not (tmp_path / "va.emc").exists()


def test_generate_without_pillow_exit_1(tmp_path, capsys, monkeypatch):
    """An image that needs Pillow to decode, where Pillow is missing."""
    model = EmoModel(ModelConfig(**dict(SMALL_MODEL, image_extractor="tiny-cnn",
                                        image_size=8)))
    model.save(tmp_path / "cnn.emc")
    (tmp_path / "photo.png").write_bytes(b"\x89PNG\r\n\x1a\n")
    monkeypatch.setitem(sys.modules, "PIL", None)
    assert main(["generate", "--image", str(tmp_path / "photo.png"), "--checkpoint",
                 str(tmp_path / "cnn.emc"), "--out", str(tmp_path / "a.mid")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [MissingArtifacts]") and "Pillow" in err
    assert "Traceback" not in err and not (tmp_path / "a.mid").exists()


def test_interrupted_ablation_midi_write_keeps_previous_file(workspace, tmp_path, monkeypatch):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"base": json.loads((workspace / "run.json").read_text()),
                                     "variants": [{"name": "v"}]}))
    args = ["ablate", "--config-grid", str(grid_path), "--out-dir", str(tmp_path / "out")]
    assert main(args) == 0
    generated = tmp_path / "out" / "v" / "generated"
    before = {p.name: p.read_bytes() for p in generated.iterdir()}
    assert "gen_000.mid" in before
    _fail_renames(monkeypatch, "gen_000.mid")
    assert main(args) == 0  # the variant is recorded as failed
    with open(tmp_path / "out" / "ablation.csv") as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["failed: OSError"]
    assert {p.name: p.read_bytes() for p in generated.iterdir()} == before


def test_interrupted_ablation_write_keeps_previous_tables(workspace, tmp_path, monkeypatch):
    _ablate_one(workspace, tmp_path, {"name": "bad", "model": {"bogus": 1}})
    out_dir = tmp_path / "ablation"
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert {"ablation.csv", "ablation.md"} <= set(before)
    grid = json.loads((tmp_path / "grid.json").read_text())
    grid["variants"].append({"name": "worse", "train": {"lr": "x"}})
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    _fail_renames(monkeypatch, "ablation.")
    assert main(["ablate", "--config-grid", str(tmp_path / "grid.json"),
                 "--out-dir", str(out_dir)]) == 2
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def _ablate_one(workspace, tmp_path, variant, name="bad"):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"base": json.loads((workspace / "run.json").read_text()),
                                     "variants": [variant]}))
    out_dir = tmp_path / "ablation"
    assert main(["ablate", "--config-grid", str(grid_path), "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "ablation.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["model"], r["status"]) for r in rows] == [(name, "failed: ConfigError")]


VARIANT_SECTIONS = [(section, value) for section, value in BAD_CASES
                    if section in ("model", "train")] + [("data", {"split": "val"})]


# names that are not one plain path component, so the variant's directory
# would not be a child of --out-dir, or that the sweep's own files take
PATH_NAMES = ["/escape_abs", "../escape_rel", "a/b", ".", "..", "nul\0byte",
              "ablation.csv", "ablation.md", "base_config.json"]


@pytest.mark.parametrize("variant, name", [
    *[({"name": "bad", section: value}, "bad") for section, value in VARIANT_SECTIONS],
    (5, "variant0"),
    *[({"name": path}, path) for path in PATH_NAMES],
], ids=[f"{section}={json.dumps(value)}" for section, value in VARIANT_SECTIONS]
    + ["not-an-object"] + [f"name={json.dumps(path)}" for path in PATH_NAMES])
def test_malformed_ablation_variant_fails_alone(workspace, tmp_path, variant, name):
    _ablate_one(workspace, tmp_path, variant, name)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ablation", "grid.json"]
    assert sorted(p.name for p in (tmp_path / "ablation").iterdir()) == [
        "ablation.csv", "ablation.md", "base_config.json"]


def test_repeated_ablation_variant_name_fails(workspace, tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"base": json.loads((workspace / "run.json").read_text()),
                                     "variants": [{"name": "dup"}, {"name": "dup"}]}))
    out_dir = tmp_path / "ablation"
    assert main(["ablate", "--config-grid", str(grid_path), "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "ablation.csv") as fh:
        rows = [(r["model"], r["status"]) for r in csv.DictReader(fh)]
    assert rows == [("dup", "ok"), ("dup", "failed: ConfigError")]


@pytest.mark.parametrize("flag", ["--steps-per-beat", "--steps-per-measure"])
def test_metrics_zero_steps_exit_1(tmp_path, capsys, flag):
    (tmp_path / "p.mid").write_bytes(write_midi(_long_piece(np.random.default_rng(7))))
    assert main(["metrics", "--midi-dir", str(tmp_path), "--out", str(tmp_path / "m.csv"),
                 flag, "0"]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "Traceback" not in err
    with pytest.raises(ConfigError):
        MetricConfig(**{flag[2:].replace("-", "_"): 0})


def test_config_not_utf8_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(b'{"model": {"image_extractor": "\xff"}}')
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
    assert "ConfigError" in capsys.readouterr().err


# --- exit codes: every subcommand x {validation error -> 1, runtime error -> 2} ---

DEEP_JSON = "[" * 100_000  # nested past the json module's recursion limit


def _deep_json(tmp_path):
    (tmp_path / "deep.json").write_text(DEEP_JSON)
    return str(tmp_path / "deep.json")


def _deep_manifest_config(workspace, tmp_path):
    payload = json.loads((workspace / "run.json").read_text())
    payload["data"]["manifest"] = _deep_json(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(payload))
    return str(tmp_path / "run.json")


def _bad_checkpoint(tmp_path):
    (tmp_path / "bad.emc").write_bytes(b"EMGCKPT0" + bytes(16))
    return str(tmp_path / "bad.emc")


def _grid(workspace, tmp_path):
    grid = {"base": json.loads((workspace / "run.json").read_text()), "variants": [{}]}
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    return str(tmp_path / "grid.json")


def _regular_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return str(tmp_path / "taken")


EXIT_CASES = {
    ("pair", 1): lambda ws, rd, tmp: [  # CountMismatch
        "pair", "--images", str(ws / "images.csv"), "--midis", str(ws / "midis.csv"),
        "--out", str(tmp / "p.json"), "--split", "1,1,1"],
    ("pair", 2): lambda ws, rd, tmp: [  # CatalogError
        "pair", "--images", str(ws / "run.json"), "--midis", str(ws / "midis.csv"),
        "--out", str(tmp / "p.json")],
    ("pretrain-va", 1): lambda ws, rd, tmp: [  # ConfigError
        "pretrain-va", "--midis", str(ws / "midis.csv"), "--config", _deep_json(tmp),
        "--out", str(tmp / "va.emc")],
    ("pretrain-va", 2): lambda ws, rd, tmp: [  # OSError
        "pretrain-va", "--midis", str(tmp / "none.csv"), "--out", str(tmp / "va.emc")],
    ("train", 1): lambda ws, rd, tmp: [  # ConfigError
        "train", "--config", _deep_json(tmp), "--out-dir", str(tmp / "out")],
    ("train", 2): lambda ws, rd, tmp: [  # CatalogError
        "train", "--config", _deep_manifest_config(ws, tmp), "--out-dir", str(tmp / "out")],
    ("generate", 1): lambda ws, rd, tmp: [  # ConfigError
        "generate", "--image", str(ws / "img0.emf"), "--checkpoint",
        str(rd / "checkpoint.emc"), "--out", str(tmp / "a.mid"), "--max-len", "0"],
    ("generate", 2): lambda ws, rd, tmp: [  # CheckpointCorrupt
        "generate", "--image", str(ws / "img0.emf"), "--checkpoint", _bad_checkpoint(tmp),
        "--out", str(tmp / "a.mid")],
    ("metrics", 1): lambda ws, rd, tmp: [  # MissingArtifacts
        "metrics", "--midi-dir", str(tmp), "--out", str(tmp / "m.csv")],
    ("metrics", 2): lambda ws, rd, tmp: [  # OSError
        "metrics", "--midi-dir", str(ws), "--out", str(tmp / "none" / "m.csv")],
    ("gradcheck", 1): lambda ws, rd, tmp: ["gradcheck", "--tolerance", "0"],  # ConfigError
    ("gradcheck", 2): lambda ws, rd, tmp: ["gradcheck", "--tolerance", "1e-300"],  # FAIL rows
    ("ablate", 1): lambda ws, rd, tmp: [  # ConfigError
        "ablate", "--config-grid", _deep_json(tmp), "--out-dir", str(tmp / "out")],
    ("ablate", 2): lambda ws, rd, tmp: [  # FileExistsError: the output directory is a file
        "ablate", "--config-grid", _grid(ws, tmp), "--out-dir", _regular_file(tmp)],
}


def test_exit_code_table_covers_every_subcommand():
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert set(EXIT_CASES) == {(name, code) for name in subcommands for code in (1, 2)}


@pytest.mark.parametrize("command, code", list(EXIT_CASES),
                         ids=[f"{command}-exit{code}" for command, code in EXIT_CASES])
def test_exit_code_table(workspace, run_dir, tmp_path, capsys, command, code):
    assert main(EXIT_CASES[command, code](workspace, run_dir, tmp_path)) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if command == "gradcheck" and code == 2:
        assert "FAIL" in out
    else:
        assert err.startswith("error [")


def test_memory_error_exits_2(monkeypatch, capsys):
    """A handler that runs out of memory (patched in: no test allocates that
    much) ends as exit 2 with a one-line message, not a traceback."""
    def exhausted(args):
        raise MemoryError
    monkeypatch.setattr(cli, "cmd_gradcheck", exhausted)
    assert main(["gradcheck"]) == 2
    out, err = capsys.readouterr()
    assert err == "error [memory]: out of memory\n" and out == ""
