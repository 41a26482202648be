"""Event-token view of MIDI pieces.

Token-ID layout (stable, serialized into checkpoints via `vocab_hash`):

    0..2                      PAD, BOS, EOS
    3..130                    NOTE_ON(0..127)
    131..258                  NOTE_OFF(0..127)
    259..259+K-1              TIME_SHIFT(1..K grid steps)
    259+K..259+K+V-1          VELOCITY(bin 0..V-1)

Encoding is deterministic; decoding is total (any ID sequence over the
vocabulary yields a valid, possibly empty, piece).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ._files import write_atomic
from .errors import CatalogError, TokenizerError, VocabMismatch
from .midi_io import MidiPiece, NoteEvent, note_to_steps

PAD, BOS, EOS = 0, 1, 2
_NUM_SPECIALS = 3
DEFAULT_VELOCITY = 64


@dataclass(frozen=True)
class Vocabulary:
    """Configurable event vocabulary; defaults give 391 tokens."""

    time_shift_bins: int = 100
    velocity_bins: int = 32

    def __post_init__(self):
        if self.time_shift_bins < 1 or self.velocity_bins < 1:
            raise TokenizerError("bin counts must be >= 1")

    @property
    def note_on_base(self) -> int:
        return _NUM_SPECIALS

    @property
    def note_off_base(self) -> int:
        return _NUM_SPECIALS + 128

    @property
    def time_shift_base(self) -> int:
        return _NUM_SPECIALS + 256

    @property
    def velocity_base(self) -> int:
        return self.time_shift_base + self.time_shift_bins

    @property
    def total_size(self) -> int:
        return self.velocity_base + self.velocity_bins

    @property
    def vocab_hash(self) -> str:
        key = f"layout=v1;specials=3;ts={self.time_shift_bins};vel={self.velocity_bins}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]

    # token <-> id, tokens are ("PAD",), ("NOTE_ON", pitch), ("TIME_SHIFT", steps), ...
    def token_to_id(self, token: tuple) -> int:
        name = token[0]
        if name == "PAD":
            return PAD
        if name == "BOS":
            return BOS
        if name == "EOS":
            return EOS
        if name in ("NOTE_ON", "NOTE_OFF"):
            if not 0 <= token[1] <= 127:
                raise TokenizerError(f"pitch {token[1]} outside 0..127")
            base = self.note_on_base if name == "NOTE_ON" else self.note_off_base
            return base + token[1]
        if name == "TIME_SHIFT":
            if not 1 <= token[1] <= self.time_shift_bins:
                raise TokenizerError(f"time shift {token[1]} outside 1..{self.time_shift_bins}")
            return self.time_shift_base + token[1] - 1
        if name == "VELOCITY":
            if not 0 <= token[1] < self.velocity_bins:
                raise TokenizerError(
                    f"velocity bin {token[1]} outside 0..{self.velocity_bins - 1}")
            return self.velocity_base + token[1]
        raise TokenizerError(f"unknown token {token!r}")

    def id_to_token(self, idx: int) -> tuple:
        if not 0 <= idx < self.total_size:
            raise TokenizerError(f"id {idx} outside vocabulary of {self.total_size}")
        if idx == PAD:
            return ("PAD",)
        if idx == BOS:
            return ("BOS",)
        if idx == EOS:
            return ("EOS",)
        if idx < self.note_off_base:
            return ("NOTE_ON", idx - self.note_on_base)
        if idx < self.time_shift_base:
            return ("NOTE_OFF", idx - self.note_off_base)
        if idx < self.velocity_base:
            return ("TIME_SHIFT", idx - self.time_shift_base + 1)
        return ("VELOCITY", idx - self.velocity_base)

    # velocity quantization: uniform bins over 1..127, decode to bin center
    def velocity_to_bin(self, velocity: int) -> int:
        return min(self.velocity_bins - 1, (velocity - 1) * self.velocity_bins // 126)

    def bin_to_velocity(self, bin_index: int) -> int:
        center = round(1 + (bin_index + 0.5) * 126 / self.velocity_bins)
        return max(1, min(127, center))


@dataclass(frozen=True)
class TokenSequence:
    """A BOS-led, EOS-or-truncated token-ID sequence of bounded length."""

    ids: tuple[int, ...]
    max_len: int

    def __post_init__(self):
        if len(self.ids) > self.max_len:
            raise TokenizerError(f"{len(self.ids)} ids exceed max_len {self.max_len}")
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))

    def __len__(self) -> int:
        return len(self.ids)


def encode(piece: MidiPiece, vocab: Vocabulary, steps_per_beat: int = 4,
           max_len: int = 256) -> TokenSequence:
    """Encode a piece as a deterministic event stream, truncated at max_len."""
    if max_len < 2:
        raise TokenizerError("max_len must be >= 2")
    boundaries: dict[int, tuple[list, list]] = {}  # step -> (offs, ons)
    for note in piece.notes:
        start, end = note_to_steps(note, steps_per_beat, piece.ticks_per_beat)
        boundaries.setdefault(start, ([], []))[1].append((note.pitch, note.velocity))
        boundaries.setdefault(end, ([], []))[0].append(note.pitch)

    ids = [BOS]
    step = 0
    velocity_bin = None
    for at in sorted(boundaries):
        offs, ons = boundaries[at]
        gap = at - step
        while gap > 0:  # greedy largest-bin-first
            shift = min(gap, vocab.time_shift_bins)
            ids.append(vocab.token_to_id(("TIME_SHIFT", shift)))
            gap -= shift
        step = at
        for pitch in sorted(offs):
            ids.append(vocab.token_to_id(("NOTE_OFF", pitch)))
        for pitch, velocity in sorted(ons):
            vbin = vocab.velocity_to_bin(velocity)
            if vbin != velocity_bin:
                ids.append(vocab.token_to_id(("VELOCITY", vbin)))
                velocity_bin = vbin
            ids.append(vocab.token_to_id(("NOTE_ON", pitch)))
    ids = ids[:max_len - 1]
    ids.append(EOS)
    return TokenSequence(ids=tuple(ids), max_len=max_len)


def decode(tokens: TokenSequence | Iterable[int], vocab: Vocabulary,
           steps_per_beat: int = 4) -> MidiPiece:
    """Decode token IDs into a piece; total over arbitrary ID sequences."""
    ids = tokens.ids if isinstance(tokens, TokenSequence) else tuple(tokens)
    ticks_per_step = max(1, 480 // steps_per_beat) if 480 % steps_per_beat == 0 else 120
    ticks_per_beat = ticks_per_step * steps_per_beat

    notes: list[NoteEvent] = []
    open_notes: dict[int, tuple[int, int]] = {}  # pitch -> (start step, velocity)
    step = 0
    velocity = DEFAULT_VELOCITY

    def close(pitch: int, at: int):
        start, vel = open_notes.pop(pitch)
        notes.append(NoteEvent(onset=start * ticks_per_step, pitch=pitch,
                               duration=max(1, at - start) * ticks_per_step,
                               velocity=vel))

    for idx in ids:
        if not 0 <= idx < vocab.total_size:
            continue  # robustness: ignore out-of-vocabulary ids
        token = vocab.id_to_token(idx)
        name = token[0]
        if name == "EOS":
            break
        if name == "TIME_SHIFT":
            step += token[1]
        elif name == "VELOCITY":
            velocity = vocab.bin_to_velocity(token[1])
        elif name == "NOTE_ON":
            if token[1] in open_notes:
                close(token[1], step)
            open_notes[token[1]] = (step, velocity)
        elif name == "NOTE_OFF":
            if token[1] in open_notes:
                close(token[1], step)
    for pitch in sorted(open_notes):
        close(pitch, step)
    return MidiPiece(ticks_per_beat=ticks_per_beat, notes=tuple(notes))


# --- tokenized dataset persistence (JSON lines) ---

def save_token_dataset(path: str | Path, records: Iterable[tuple[str, Iterable[int]]],
                       vocab: Vocabulary) -> None:
    """One JSON line per record, written atomically."""
    lines = (json.dumps({"id": rec_id, "ids": list(map(int, ids)),
                         "vocab_hash": vocab.vocab_hash}) + "\n" for rec_id, ids in records)
    write_atomic(path, (line.encode("utf-8") for line in lines))


def load_token_dataset(path: str | Path, vocab: Vocabulary) -> Iterator[tuple[str, list[int]]]:
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = json.loads(line)
                rec_id, ids = rec["id"], [int(i) for i in rec["ids"]]
            # OverflowError: an infinite id; RecursionError: JSON nested too deeply
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                raise CatalogError(f"{path}:{line_no}: bad record: {exc!r}") from exc
            if rec.get("vocab_hash") != vocab.vocab_hash:
                raise VocabMismatch(
                    f"{path}:{line_no}: vocab hash {rec.get('vocab_hash')} "
                    f"!= expected {vocab.vocab_hash}")
            yield rec_id, ids
