"""Symbolic music-quality metrics and their aggregate loss.

Pitch entropy works on note lists; polyphony rate and groove consistency
work on piano rolls. The aggregate quality loss is the mean absolute
deviation from a reference metric triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BadMetricSetting, EmptyPiece, EmptyRoll, TooShort, check_int
from .midi_io import MidiPiece, PianoRoll, to_piano_roll


@dataclass(frozen=True)
class MetricTriple:
    polyphony_rate: float
    pitch_entropy: float
    groove_consistency: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.polyphony_rate, self.pitch_entropy, self.groove_consistency)


#: Ground-truth metric triple the quality loss is measured against.
REFERENCE_TRIPLE = MetricTriple(polyphony_rate=0.5303, pitch_entropy=3.9863,
                                groove_consistency=0.9922)


def pitch_entropy(piece: MidiPiece) -> float:
    """Shannon entropy (bits) of the piece's pitch distribution."""
    if not piece.notes:
        raise EmptyPiece("pitch entropy undefined for a piece with no notes")
    counts = np.bincount([note.pitch for note in piece.notes])
    probs = counts[counts > 0] / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def polyphony_rate(roll: PianoRoll, denominator: str = "sounding") -> float:
    """Fraction of time steps with >= 2 simultaneous pitches.

    denominator="sounding" counts only steps with at least one note (default,
    so silence cannot inflate apparent monophony); "total" uses all steps.
    """
    if roll.num_steps == 0:
        raise EmptyRoll("polyphony rate undefined for an empty roll")
    small = roll.grid.dtype == bool and roll.grid.shape[0] < 256  # its counts fit a uint8
    column_counts = roll.grid.sum(axis=0, dtype=np.uint8 if small else None)
    multi = int((column_counts >= 2).sum())
    if denominator == "sounding":
        sounding = int((column_counts >= 1).sum())
        if sounding == 0:
            raise EmptyRoll("no sounding steps")
        return multi / sounding
    if denominator == "total":
        return multi / roll.num_steps
    raise BadMetricSetting(f"unknown denominator mode {denominator!r}")


def groove_consistency(roll: PianoRoll, steps_per_measure: int = 16) -> float:
    """One minus the mean Hamming distance per step between consecutive
    measures' onset vectors. Trailing partial measures are discarded."""
    check_int("steps_per_measure", steps_per_measure, 1, BadMetricSetting)
    measures = roll.num_steps // steps_per_measure
    if measures < 2:
        raise TooShort(f"{measures} full measure(s); need >= 2")
    onset_any = roll.onsets.any(axis=0)[:measures * steps_per_measure]
    vectors = onset_any.reshape(measures, steps_per_measure)
    distances = (vectors[:-1] != vectors[1:]).sum(axis=1) / steps_per_measure
    return 1.0 - float(distances.mean())


def music_quality_loss(m: MetricTriple) -> float:
    """Mean absolute deviation of a metric triple from `REFERENCE_TRIPLE`."""
    deltas = [abs(a - b) for a, b in zip(m.as_tuple(), REFERENCE_TRIPLE.as_tuple())]
    return sum(deltas) / 3.0


def evaluate_piece(piece: MidiPiece, steps_per_beat: int = 4,
                   steps_per_measure: int = 16,
                   polyphony_denominator: str = "sounding") -> tuple[MetricTriple, float]:
    """All three metrics plus the quality loss for a single piece."""
    roll = to_piano_roll(piece, steps_per_beat)
    triple = MetricTriple(
        polyphony_rate=polyphony_rate(roll, polyphony_denominator),
        pitch_entropy=pitch_entropy(piece),
        groove_consistency=groove_consistency(roll, steps_per_measure),
    )
    return triple, music_quality_loss(triple)


def mean_triple(triples: Iterable[MetricTriple]) -> MetricTriple:
    triples = list(triples)
    if not triples:
        return MetricTriple(math.nan, math.nan, math.nan)
    arr = np.array([t.as_tuple() for t in triples], dtype=float)
    means = arr.mean(axis=0)
    return MetricTriple(*map(float, means))
