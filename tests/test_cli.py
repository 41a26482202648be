import csv
import json

import numpy as np
import pytest

from emogen import cli
from emogen.cli import main
from emogen.metrics import evaluate_piece
from emogen.midi_io import MidiPiece, NoteEvent, parse_midi, write_midi
from emogen.model import (IMAGE_FEATURE_DIM, EmoModel, load_va_predictor,
                           write_feature_file)
from emogen.pairing import load_manifest

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
