import math
from collections import Counter

import numpy as np
import pytest

from emogen.errors import BadMetricSetting, EmogenError, EmptyPiece, EmptyRoll, TooShort
from emogen.metrics import (REFERENCE_TRIPLE, MetricTriple, evaluate_piece,
                            groove_consistency, mean_triple, music_quality_loss,
                            pitch_entropy, polyphony_rate)
from emogen.midi_io import MidiPiece, NoteEvent, PianoRoll, to_piano_roll

from conftest import random_canonical_piece


def _piece(pitches, ticks_per_beat=480):
    notes = tuple(NoteEvent(onset=i * 480, pitch=p, duration=240, velocity=64)
                  for i, p in enumerate(pitches))
    return MidiPiece(ticks_per_beat, notes)


def _roll(grid, onsets=None):
    grid = np.asarray(grid, dtype=bool)
    full = np.zeros((128, grid.shape[1]), dtype=bool)
    full[:grid.shape[0]] = grid
    if onsets is None:
        onset_full = np.zeros_like(full)
        onset_full[:, :1] = full[:, :1]
        onset_full[:, 1:] = full[:, 1:] & ~full[:, :-1]
    else:
        onset_full = np.zeros_like(full)
        onset_full[:np.asarray(onsets).shape[0]] = np.asarray(onsets, dtype=bool)
    return PianoRoll(grid=full, onsets=onset_full)


# --- independent slow oracles ---

def oracle_pitch_entropy(piece):
    counts = Counter(n.pitch for n in piece.notes)
    total = sum(counts.values())
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def oracle_polyphony_rate(piece, steps_per_beat=4, denominator="sounding"):
    cols = {}
    for n in piece.notes:
        start = (n.onset * steps_per_beat) // piece.ticks_per_beat
        end = math.ceil((n.onset + n.duration) * steps_per_beat / piece.ticks_per_beat)
        for t in range(start, max(end, start + 1)):
            cols.setdefault(t, set()).add(n.pitch)
    total = max((max(cols) + 1) if cols else 0,
                to_piano_roll(piece, steps_per_beat).num_steps)
    multi = sum(1 for s in cols.values() if len(s) >= 2)
    if denominator == "sounding":
        return multi / len(cols)
    return multi / total


def oracle_groove(piece, steps_per_beat=4, steps_per_measure=16):
    roll = to_piano_roll(piece, steps_per_beat)
    onset_any = [bool(roll.onsets[:, t].any()) for t in range(roll.num_steps)]
    measures = len(onset_any) // steps_per_measure
    sims = []
    for m in range(measures - 1):
        a = onset_any[m * steps_per_measure:(m + 1) * steps_per_measure]
        b = onset_any[(m + 1) * steps_per_measure:(m + 2) * steps_per_measure]
        hamming = sum(1 for x, y in zip(a, b) if x != y)
        sims.append(1 - hamming / steps_per_measure)
    return sum(sims) / len(sims)


class TestPitchEntropy:
    def test_hand_example(self):
        assert pitch_entropy(_piece([60, 60, 64, 67])) == pytest.approx(1.5)

    def test_uniform_four_pitches(self):
        assert pitch_entropy(_piece([60, 62, 64, 65])) == pytest.approx(2.0)

    def test_single_pitch_zero(self):
        assert pitch_entropy(_piece([60, 60, 60])) == 0.0

    def test_empty_piece_raises(self):
        with pytest.raises(EmptyPiece):
            pitch_entropy(MidiPiece(480, ()))

    def test_transposition_invariant(self, rng):
        for _ in range(20):
            piece = random_canonical_piece(rng, max_notes=8)
            if not piece.notes:
                continue
            shifted = MidiPiece(480, tuple(
                NoteEvent(n.onset, min(127, n.pitch + 7), n.duration, n.velocity)
                for n in piece.notes))
            assert pitch_entropy(shifted) == pytest.approx(pitch_entropy(piece), abs=1e-12)


class TestPolyphonyRate:
    def test_all_monophonic(self):
        roll = _roll([[1, 1, 1, 1]])
        assert polyphony_rate(roll) == 0.0

    def test_half_polyphonic_sounding(self):
        roll = _roll([[1, 1, 1, 1], [1, 1, 0, 0]])
        assert polyphony_rate(roll, "sounding") == 0.5

    def test_denominators_differ_with_silence(self):
        roll = _roll([[1, 1, 0, 0], [1, 1, 0, 0]])
        assert polyphony_rate(roll, "sounding") == 1.0
        assert polyphony_rate(roll, "total") == 0.5

    def test_empty_roll_raises(self):
        with pytest.raises(EmptyRoll):
            polyphony_rate(_roll(np.zeros((1, 0))))

    def test_silent_roll_raises(self):
        with pytest.raises(EmptyRoll):
            polyphony_rate(_roll([[0, 0, 0]]), "sounding")

    def test_unknown_denominator(self):
        with pytest.raises(ValueError):
            polyphony_rate(_roll([[1]]), "weird")


@pytest.mark.parametrize("call", [
    lambda: polyphony_rate(_roll([[1]]), "weird"),
    lambda: groove_consistency(_roll([[1] * 32]), steps_per_measure=0),
    lambda: evaluate_piece(_piece([60]), steps_per_beat=0),
    # each was accepted or failed as a bare TypeError
    lambda: groove_consistency(_roll([[1] * 32]), steps_per_measure=True),
    lambda: groove_consistency(_roll([[1] * 32]), steps_per_measure=1.5),
    lambda: groove_consistency(_roll([[1] * 32]), steps_per_measure="x"),
    lambda: to_piano_roll(_piece([60]), steps_per_beat=True),
    lambda: to_piano_roll(_piece([60]), steps_per_beat=1.5),
    lambda: evaluate_piece(_piece([60]), steps_per_beat="x"),
], ids=["denominator", "steps_per_measure", "steps_per_beat", "steps_per_measure_bool",
        "steps_per_measure_float", "steps_per_measure_str", "steps_per_beat_bool",
        "steps_per_beat_float", "steps_per_beat_str"])
def test_bad_settings_are_typed(call):
    with pytest.raises(BadMetricSetting) as info:
        call()
    assert isinstance(info.value, EmogenError) and isinstance(info.value, ValueError)


class TestGrooveConsistency:
    def test_identical_measures(self):
        grid = np.tile([1] + [0] * 3, (1, 8))  # onset every 4 steps, 32 steps
        assert groove_consistency(_roll(grid), steps_per_measure=16) == 1.0

    def test_one_step_difference(self):
        onsets = np.zeros((1, 32), dtype=bool)
        onsets[0, 0] = True
        onsets[0, 16] = True
        onsets[0, 17] = True  # second measure has one extra onset
        grid = np.ones((1, 32), dtype=bool)
        roll = _roll(grid, onsets)
        assert groove_consistency(roll, 16) == pytest.approx(1 - 1 / 16)

    def test_complementary_measures(self):
        onsets = np.zeros((1, 8), dtype=bool)
        onsets[0, :4] = [1, 0, 1, 0]
        onsets[0, 4:] = [0, 1, 0, 1]
        assert groove_consistency(_roll(np.ones((1, 8)), onsets), 4) == 0.0

    def test_too_short(self):
        with pytest.raises(TooShort):
            groove_consistency(_roll([[1] * 20]), steps_per_measure=16)

    def test_trailing_partial_measure_ignored(self):
        onsets = np.zeros((1, 40), dtype=bool)
        onsets[0, [0, 16]] = True
        onsets[0, 33] = True  # in the discarded partial third measure
        roll = _roll(np.ones((1, 40)), onsets)
        assert groove_consistency(roll, 16) == 1.0


class TestQualityLoss:
    def test_zero_at_reference(self):
        assert music_quality_loss(REFERENCE_TRIPLE) == 0.0

    def test_hand_example(self):
        triple = MetricTriple(0.0, 0.0, 0.9922)
        assert music_quality_loss(triple) == pytest.approx((0.5303 + 3.9863) / 3)


class TestEvaluate:
    def _long_random_piece(self, rng):
        # enough grid-aligned notes for two full measures at 4 steps/beat
        notes = []
        for i in range(10):
            count = int(rng.integers(1, 3))
            pitches = rng.choice(np.arange(48, 84), size=count, replace=False)
            for p in pitches:
                notes.append(NoteEvent(i * 480, int(p), 480, 64))
        return MidiPiece(480, tuple(notes))

    def test_matches_oracles_on_random_pieces(self, rng):
        for _ in range(30):
            piece = self._long_random_piece(rng)
            triple, loss = evaluate_piece(piece)
            assert triple.pitch_entropy == pytest.approx(
                oracle_pitch_entropy(piece), abs=1e-12)
            assert triple.polyphony_rate == pytest.approx(
                oracle_polyphony_rate(piece), abs=1e-12)
            assert triple.groove_consistency == pytest.approx(
                oracle_groove(piece), abs=1e-12)
            assert loss == pytest.approx(music_quality_loss(triple), abs=1e-15)

    def test_mean_triple(self):
        triples = [MetricTriple(0.0, 2.0, 1.0), MetricTriple(1.0, 4.0, 0.0)]
        assert mean_triple(triples) == MetricTriple(0.5, 3.0, 0.5)
