import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from emogen import cli
from emogen.cli import main
from emogen.config import MetricConfig, RunConfig
from emogen.errors import ConfigError
from emogen.metrics import evaluate_piece
from emogen.midi_io import MidiPiece, NoteEvent, parse_midi, write_midi
from emogen.model import (IMAGE_FEATURE_DIM, EmoModel, ModelConfig,
                           load_va_predictor, save_checkpoint, write_feature_file)
from emogen.pairing import load_manifest

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

    def test_bad_split_counts_exit_1(self, workspace, tmp_path):
        code = main(["pair", "--images", str(workspace / "images.csv"),
                     "--midis", str(workspace / "midis.csv"),
                     "--out", str(tmp_path / "x.json"), "--split", "5,1,1"])
        assert code == 1

    def test_malformed_split_exit_1(self, workspace, tmp_path):
        code = main(["pair", "--images", str(workspace / "images.csv"),
                     "--midis", str(workspace / "midis.csv"),
                     "--out", str(tmp_path / "x.json"), "--split", "two,0,0"])
        assert code == 1

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


class TestPretrainVa:
    def test_pretrain_writes_loadable_predictor(self, workspace, tmp_path):
        config = {"model": SMALL_MODEL}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "va.emc"
        assert main(["pretrain-va", "--midis", str(workspace / "midis.csv"),
                     "--config", str(cfg_path), "--out", str(out),
                     "--epochs", "5"]) == 0
        predictor = load_va_predictor(out)
        point = predictor.predict_va([1, 5, 5, 2])
        assert 1.0 <= point.valence <= 9.0


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
        out = capsys.readouterr().out
        assert "full_model" in out and "FAIL" not in out


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

    def test_empty_grid_exit_1(self, tmp_path):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"base": {}, "variants": []}))
        assert main(["ablate", "--config-grid", str(grid_path),
                     "--out-dir", str(tmp_path / "out")]) == 1


# Each bad config section ends in ConfigError: the library raises it, `train`
# and `pretrain-va` exit 1, and as an ablation variant (model/train only) it is
# recorded as a failed row while the sweep exits 0.
BAD_SECTIONS = [
    ("model", {"time_shift_bins": 0}),
    ("model", {"bogus": 1}),
    ("model", {"model_dim": "x"}),
    ("model", {"model_dim": -16}),
    ("model", [1]),
    ("train", {"lr": "x"}),
    ("train", {"epochs": 2.5}),
    ("metrics", {"steps_per_beat": "x"}),
    ("data", {"split": None}),
]
# JSON's NaN and Infinity, which Python's json module reads
NON_FINITE = [("train", {"lr": float("nan")}), ("train", {"lambda_va": float("inf")})]


def _with_section(workspace, section, value):
    payload = json.loads((workspace / "run.json").read_text())
    if isinstance(value, dict):
        payload.setdefault(section, {}).update(value)
    else:
        payload[section] = value
    return payload


BAD_IDS = [f"{section}={json.dumps(value)}" for section, value in BAD_SECTIONS + NON_FINITE]


@pytest.mark.parametrize("section, value", BAD_SECTIONS + NON_FINITE, ids=BAD_IDS)
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


@pytest.mark.parametrize("variant, name", [
    *[({"name": "bad", section: value}, "bad")
      for section, value in BAD_SECTIONS if section in ("model", "train")],
    (5, "variant0"),
    ({"name": "bad", "data": {"split": "val"}}, "bad"),
    *[({"name": "bad", section: value}, "bad") for section, value in NON_FINITE],
])
def test_malformed_ablation_variant_fails_alone(workspace, tmp_path, variant, name):
    _ablate_one(workspace, tmp_path, variant, name)


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
