"""Acceptance gate: one test (and one summary line) per release criterion."""

import csv
import functools
import json
import time

import numpy as np
import pytest

import conftest
from conftest import random_canonical_piece
from emogen.cli import main as cli_main
from emogen.diagnostics import full_model_gradcheck, standard_gradchecks
from emogen.metrics import (REFERENCE_TRIPLE, groove_consistency,
                            music_quality_loss, pitch_entropy, polyphony_rate)
from emogen.midi_io import MidiPiece, NoteEvent, parse_midi, to_piano_roll, write_midi
from emogen.model import (IMAGE_FEATURE_DIM, EmoModel, VaPredictor,
                          token_histogram, write_feature_file)
from emogen.nn import Tensor
from emogen.pairing import PairManifest, TaggedItem, VaPoint, pair_datasets, split
from emogen.tokenizer import BOS, Vocabulary, decode
from emogen.training import (LossWeights, TrainConfig, TrainSample, fit,
                             pretrain_va_predictor, total_loss, va_loss)

from test_metrics import (oracle_groove, oracle_pitch_entropy,
                          oracle_polyphony_rate)
from test_model import small_config


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append(f"criterion {number:2d} FAIL  {title}")
                raise
            conftest.ACCEPTANCE_RESULTS.append(f"criterion {number:2d} PASS  {title}")
        return run
    return wrap


def _metric_friendly_piece(rng):
    """<= 8 notes, grid-aligned, spanning two full 16-step measures."""
    n = int(rng.integers(1, 8))
    notes = []
    for _ in range(n):
        onset = int(rng.integers(0, 28)) * 120  # steps 0..27 at 120 ticks/step
        duration = int(rng.integers(1, 8)) * 120
        notes.append(NoteEvent(onset, int(rng.integers(40, 90)), duration,
                               int(rng.integers(1, 128))))
    # anchor note so the roll always covers >= 32 steps (2 measures)
    notes.append(NoteEvent(31 * 120, 60, 120, 64))
    return MidiPiece(480, tuple(notes))


@criterion(1, "metric oracles agree within 1e-12 on 50 random pieces (< 5 s)")
def test_metric_oracles():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(50):
        piece = _metric_friendly_piece(rng)
        roll = to_piano_roll(piece, 4)
        assert pitch_entropy(piece) == pytest.approx(
            oracle_pitch_entropy(piece), abs=1e-12)
        assert polyphony_rate(roll) == pytest.approx(
            oracle_polyphony_rate(piece), abs=1e-12)
        assert groove_consistency(roll, 16) == pytest.approx(
            oracle_groove(piece), abs=1e-12)
    assert time.perf_counter() - start < 5.0


@criterion(2, "hand-computed metric values and reference-triple loss")
def test_hand_values():
    notes = tuple(NoteEvent(i * 480, p, 240, 64)
                  for i, p in enumerate([60, 60, 64, 67]))
    assert pitch_entropy(MidiPiece(480, notes)) == 1.5
    # one onset at the start of each 16-step measure, four measures
    repeated = MidiPiece(480, tuple(NoteEvent(b * 4 * 480, 60, 480, 64)
                                    for b in range(4)))
    assert groove_consistency(to_piano_roll(repeated, 4), 16) == 1.0
    assert music_quality_loss(REFERENCE_TRIPLE) == 0.0


@criterion(3, "500 canonical pieces round-trip byte-identically (< 10 s)")
def test_midi_round_trip():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    for _ in range(500):
        piece = random_canonical_piece(rng)
        first = write_midi(piece)
        reparsed = parse_midi(first)
        assert reparsed == piece
        assert write_midi(reparsed) == first
    assert time.perf_counter() - start < 10.0


@criterion(4, "10,000 fuzzed token sequences decode totally (< 30 s)")
def test_tokenizer_totality():
    vocab = Vocabulary()
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    for _ in range(10_000):
        ids = rng.integers(0, vocab.total_size, size=int(rng.integers(0, 48)))
        piece = decode(ids, vocab)
        last_end = {}
        for note in piece.notes:
            assert note.duration >= 1
            assert 0 <= note.pitch < 128
            assert 1 <= note.velocity <= 127
            assert note.onset >= 0
        assert piece.notes == tuple(sorted(piece.notes,
                                           key=lambda n: (n.onset, n.pitch)))
    assert time.perf_counter() - start < 30.0


@criterion(5, "pairing equals exhaustive argmax; (2884,100,16) split is exact")
def test_pairing_oracle_and_split():
    py = np.random.default_rng(105)

    def catalog(prefix, count, kind):
        return [TaggedItem(id=f"{prefix}{i:02d}", kind=kind,
                           va=VaPoint(float(py.uniform(1, 9)), float(py.uniform(1, 9))),
                           payload_path="x")
                for i in range(count)]

    for _ in range(20):
        midis = catalog("m", int(py.integers(1, 11)), "midi")
        images = catalog("i", int(py.integers(1, 16)), "image")
        manifest = pair_datasets(midis, images)
        for midi, pair in zip(sorted(midis, key=lambda m: m.id), manifest.pairs):
            best_d2, best_id = None, None
            for img in sorted(images, key=lambda im: im.id):
                d2 = ((midi.va.valence - img.va.valence) ** 2
                      + (midi.va.arousal - img.va.arousal) ** 2)
                if best_d2 is None or d2 < best_d2:
                    best_d2, best_id = d2, img.id
            assert pair["image_id"] == best_id

    synthetic = PairManifest(pairs=[{"midi_id": f"m{i}", "image_id": f"i{i}",
                                     "similarity": 1.0} for i in range(3000)])
    tagged = split(synthetic, (2884, 100, 16), seed=0)
    assert tagged.split_counts() == {"train": 2884, "test": 100, "val": 16}


@criterion(6, "all block gradchecks and the reduced full model < 1e-4 (< 60 s)")
def test_gradient_checks():
    start = time.perf_counter()
    reports = standard_gradchecks(tolerance=1e-4)
    required = {"linear", "embedding", "layer_norm", "batch_norm", "attention",
                "encoder_block", "decoder_block", "cce", "soft_va_loss"}
    assert required <= set(reports)
    for name, report in reports.items():
        assert report.passed, f"{name}: worst rel err {report.worst:.3e}"
    full = full_model_gradcheck(tolerance=1e-4)
    assert full.passed, f"full model: worst rel err {full.worst:.3e}"
    assert time.perf_counter() - start < 60.0


def _synthetic_samples(rng, model, n=16, body=10, token_pool=None):
    out = []
    top = min(token_pool or model.vocab.total_size, model.vocab.total_size)
    for i in range(n):
        ids = np.concatenate([[BOS], rng.integers(3, top, size=body), [2]])
        out.append(TrainSample(image=rng.normal(size=IMAGE_FEATURE_DIM),
                               token_ids=ids, pair_id=f"s{i}"))
    return out


@criterion(7, "objective equals lambda-weighted sum; lambda_va=0 bit-matches off")
def test_objective_fidelity():
    weights = LossWeights()
    assert (weights.lambda_va, weights.lambda_cc) == (1e-5, 1.0)
    rng = np.random.default_rng(107)
    for _ in range(100):
        cc, va = rng.uniform(0, 50), rng.uniform(0, 10)
        assert total_loss(cc, va, weights) == weights.lambda_va * va + weights.lambda_cc * cc

    checkpoints = []
    for mode, lam in (("off", 1e-5), ("hard", 0.0)):
        model = EmoModel(small_config())
        samples = _synthetic_samples(np.random.default_rng(1), model, n=4, body=6)
        config = TrainConfig(lr=1e-3, epochs=2, batch_size=2, seed=2,
                             va_loss_mode=mode,
                             loss_weights=LossWeights(lambda_va=lam))
        predictor = VaPredictor(model.vocab.total_size, 8, np.random.default_rng(0))
        fit(model, samples, config, predictor=predictor)
        checkpoints.append(np.concatenate([p.data.reshape(-1)
                                           for _, p in model.parameters()]))
    assert np.array_equal(checkpoints[0], checkpoints[1])


@criterion(8, "16-pair training halves mean L_CC in 15 epochs, deterministically")
def test_training_convergence():
    start = time.perf_counter()

    def run():
        model = EmoModel(small_config())
        samples = _synthetic_samples(np.random.default_rng(8), model, n=16,
                                     body=6, token_pool=23)
        config = TrainConfig(lr=1e-3, epochs=15, batch_size=1, seed=0,
                             va_loss_mode="off")
        return fit(model, samples, config)

    history = run()
    assert history[-1].l_cc <= 0.5 * history[0].l_cc, \
        f"epoch 1 {history[0].l_cc:.4f} -> epoch 15 {history[-1].l_cc:.4f}"
    assert [h.l_cc for h in run()] == [h.l_cc for h in history]
    assert time.perf_counter() - start < 600.0


@criterion(9, "VA predictor held-out MAE < 0.5 on linear labels; hard==soft")
def test_va_predictor_sanity():
    rng = np.random.default_rng(109)
    vocab_size = 24
    w_v = rng.normal(size=vocab_size)
    w_a = rng.normal(size=vocab_size)
    corpus = []
    for _ in range(80):
        ids = rng.integers(3, vocab_size, size=16)
        hist = token_histogram(ids, vocab_size)
        corpus.append((ids, (float(np.clip(5 + 4 * hist @ w_v, 1, 9)),
                             float(np.clip(5 + 4 * hist @ w_a, 1, 9)))))
    predictor, report = pretrain_va_predictor(corpus, vocab_size, hidden=32,
                                              epochs=300, lr=3e-3, seed=0)
    assert report["holdout_mae"] < 0.5, report

    true_ids = np.array([3, 5, 5, 9, 12])
    probs = Tensor(np.eye(vocab_size)[true_ids])
    hard = va_loss(true_ids, probs, predictor, mode="hard")
    soft = va_loss(true_ids, probs, predictor, mode="soft").item()
    assert abs(hard - soft) < 1e-9


@criterion(10, "full ablation grid completes with failures recorded, not fatal")
def test_ablation_harness(tmp_path):
    rng = np.random.default_rng(110)
    root = tmp_path

    midi_rows = [["id", "path", "valence", "arousal"]]
    image_rows = [["id", "path", "valence", "arousal"]]
    for i in range(16):
        midi_path = root / f"m{i:02d}.mid"
        notes = tuple(NoteEvent(b * 480, int(p), 480, 64)
                      for b in range(4)
                      for p in sorted(rng.choice(np.arange(50, 80), size=2,
                                                 replace=False)))
        midi_path.write_bytes(write_midi(MidiPiece(480, notes)))
        midi_rows.append([f"m{i:02d}", str(midi_path),
                          float(rng.uniform(1, 9)), float(rng.uniform(1, 9))])
        img_path = root / f"i{i:02d}.emf"
        write_feature_file(img_path, rng.normal(size=IMAGE_FEATURE_DIM))
        image_rows.append([f"i{i:02d}", str(img_path),
                           float(rng.uniform(1, 9)), float(rng.uniform(1, 9))])
    for name, rows in (("midis.csv", midi_rows), ("images.csv", image_rows)):
        with open(root / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    manifest = root / "pairs.json"
    assert cli_main(["pair", "--images", str(root / "images.csv"),
                     "--midis", str(root / "midis.csv"),
                     "--out", str(manifest), "--seed", "0",
                     "--split", "12,2,2"]) == 0

    model_cfg = dict(encoder_blocks=2, decoder_blocks=2, model_dim=16,
                     head_count=2, ff_dim=24, max_len=32,
                     time_shift_bins=8, velocity_bins=4, seed=0)
    base = {"model": model_cfg,
            "train": {"lr": 1e-3, "epochs": 1, "batch_size": 4, "seed": 0,
                      "va_loss_mode": "off"},
            "data": {"manifest": str(manifest),
                     "midi_catalog": str(root / "midis.csv"),
                     "image_catalog": str(root / "images.csv"),
                     "va_predictor": str(root / "va.emc")}}
    cfg_path = root / "base.json"
    cfg_path.write_text(json.dumps({"model": model_cfg}))
    assert cli_main(["pretrain-va", "--midis", str(root / "midis.csv"),
                     "--config", str(cfg_path), "--out", str(root / "va.emc"),
                     "--epochs", "5"]) == 0

    variants = []
    for enc in (2, 3, 4):
        for dec in (0, 2, 3):
            for va_on in (False, True):
                variants.append({
                    "name": f"enc{enc}_dec{dec}_va{'on' if va_on else 'off'}",
                    "model": {"encoder_blocks": enc, "decoder_blocks": dec},
                    "train": {"va_loss_mode": "soft" if va_on else "off",
                              "lambda_va": 1e-5 if va_on else 0.0},
                })
    # one deliberately broken variant: the sweep must survive it
    variants.append({"name": "broken", "model": {"image_extractor": "bogus"}})

    grid_path = root / "grid.json"
    grid_path.write_text(json.dumps({"base": base, "variants": variants}))
    out_dir = root / "ablation"
    assert cli_main(["ablate", "--config-grid", str(grid_path),
                     "--out-dir", str(out_dir)]) == 0

    with open(out_dir / "ablation.csv") as fh:
        rows = {r["model"]: r for r in csv.DictReader(fh)}
    assert len(rows) == 19
    assert rows["broken"]["status"].startswith("failed")
    for name, row in rows.items():
        if name != "broken":
            assert row["status"] == "ok", f"{name}: {row['status']}"
    table = (out_dir / "ablation.md").read_text()
    assert table.splitlines()[0].startswith("| Model | Music_Quality_Loss |")
    assert len(table.strip().splitlines()) == 2 + 19
