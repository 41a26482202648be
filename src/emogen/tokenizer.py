"""Event-token view of MIDI pieces.

Token-ID layout (stable, serialized into checkpoints via `vocab_hash`):

    0..2                      PAD, BOS, EOS
    3..130                    NOTE_ON(0..127)
    131..258                  NOTE_OFF(0..127)
    259..259+K-1              TIME_SHIFT(1..K grid steps)
    259+K..259+K+V-1          VELOCITY(bin 0..V-1)

Encoding is deterministic; decoding is total over integer IDs (any such
sequence yields a valid, possibly empty, piece; IDs outside the vocabulary
are ignored).
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import TokenizerError, check_int
from .midi_io import MidiPiece, NoteEvent, note_spans

PAD, BOS, EOS = 0, 1, 2
_NUM_SPECIALS = 3
DEFAULT_VELOCITY = 64


@dataclass(frozen=True)
class Vocabulary:
    """Configurable event vocabulary; defaults give 391 tokens."""

    time_shift_bins: int = 100
    velocity_bins: int = 32

    def __post_init__(self):
        check_int("time_shift_bins", self.time_shift_bins, 1, TokenizerError)
        check_int("velocity_bins", self.velocity_bins, 1, TokenizerError)

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

    # velocity quantization: uniform bins over 1..127, decode to bin center
    def velocity_to_bin(self, velocity: int) -> int:
        return min(self.velocity_bins - 1, (velocity - 1) * self.velocity_bins // 126)

    def bin_to_velocity(self, bin_index: int) -> int:
        center = round(1 + (bin_index + 0.5) * 126 / self.velocity_bins)
        return max(1, min(127, center))

    @cached_property
    def velocity_ids(self) -> tuple[int, ...]:
        """The VELOCITY id of each MIDI velocity, indexed by velocity (a note's is 1..127)."""
        return tuple(self.velocity_base + self.velocity_to_bin(v) for v in range(128))

    @cached_property
    def bin_velocities(self) -> tuple[int, ...]:
        """The decoded velocity of each velocity bin."""
        return tuple(map(self.bin_to_velocity, range(self.velocity_bins)))


@dataclass(frozen=True)
class TokenSequence:
    """A BOS-led, EOS-or-truncated token-ID sequence of bounded length."""

    ids: tuple[int, ...]
    max_len: int

    def __post_init__(self):
        if len(self.ids) > self.max_len:
            raise TokenizerError(f"{len(self.ids)} ids exceed max_len {self.max_len}")
        object.__setattr__(self, "ids", _int_ids(self.ids))

    def __len__(self) -> int:
        return len(self.ids)


def _int_ids(ids: Iterable[int]) -> tuple[int, ...]:
    """`ids` as a tuple of ints; numpy integers pass, and a bool, float, string
    or any other id is a TokenizerError."""
    ids = tuple(ids)
    if bool in map(type, ids):  # operator.index takes a bool
        raise TokenizerError(f"ids must be integers, got {ids!r:.80}")
    try:
        return tuple(map(operator.index, ids))
    except TypeError as exc:
        raise TokenizerError(f"ids must be integers, got {ids!r:.80}") from exc


def encode(piece: MidiPiece, vocab: Vocabulary, steps_per_beat: int = 4,
           max_len: int = 256) -> TokenSequence:
    """Encode a piece as a deterministic event stream, truncated at max_len."""
    check_int("steps_per_beat", steps_per_beat, 1, TokenizerError)
    check_int("max_len", max_len, 2, TokenizerError)
    events = []  # offs (step, 0, pitch, 0) sort before ons (step, 1, pitch, velocity)
    for start, end, pitch, velocity in note_spans(piece, steps_per_beat):
        events += (start, 1, pitch, velocity), (end, 0, pitch, 0)
    events.sort()

    bins, velocity_ids = vocab.time_shift_bins, vocab.velocity_ids
    off_base, shift_base = vocab.note_off_base, vocab.time_shift_base
    ids = [BOS]
    step = 0
    velocity_id = None
    for at, is_on, pitch, velocity in events:
        if at > step:  # greedy largest-bin-first
            if len(ids) >= max_len - 1:
                break  # everything after this is truncated
            full, rest = divmod(at - step, bins)
            ids += [shift_base + bins - 1] * min(full, max_len)
            if rest:
                ids.append(shift_base + rest - 1)
        step = at
        if is_on:
            vid = velocity_ids[velocity]
            if vid != velocity_id:
                ids.append(vid)
                velocity_id = vid
            ids.append(_NUM_SPECIALS + pitch)
        else:
            ids.append(off_base + pitch)
    ids[max_len - 1:] = [EOS]  # truncate, then end
    return TokenSequence(ids=tuple(ids), max_len=max_len)


def step_ticks(steps_per_beat: int) -> int:
    """The MIDI ticks of one `decode` time step: 480 ticks per beat when
    `steps_per_beat` divides 480, else 120 ticks per step."""
    return 480 // steps_per_beat if 480 % steps_per_beat == 0 else 120


def decode(tokens: TokenSequence | Iterable[int], vocab: Vocabulary,
           steps_per_beat: int = 4) -> MidiPiece:
    """Decode token IDs into a piece; total over arbitrary integer ID sequences.
    An id that is not an integer, or `steps_per_beat` below 1, is a TokenizerError."""
    check_int("steps_per_beat", steps_per_beat, 1, TokenizerError)
    ids = tokens.ids if isinstance(tokens, TokenSequence) else _int_ids(tokens)
    ticks_per_step = step_ticks(steps_per_beat)
    ticks_per_beat = ticks_per_step * steps_per_beat

    # every field is in range by construction, so notes skip NoteEvent's checks;
    # the step never decreases, so `step - start or 1` is at least 1
    new = tuple.__new__
    notes: list[NoteEvent] = []
    open_notes: dict[int, tuple[int, int]] = {}  # pitch -> (start step, velocity)
    step = 0
    velocity = DEFAULT_VELOCITY

    # the layout's id ranges
    off_base, shift_base = vocab.note_off_base, vocab.time_shift_base
    velocity_base, total = vocab.velocity_base, vocab.total_size
    bin_velocities = vocab.bin_velocities
    for idx in ids:
        if idx < shift_base:
            if idx >= _NUM_SPECIALS:  # NOTE_ON or NOTE_OFF: either ends the open note
                pitch = (idx - _NUM_SPECIALS) % 128
                if pitch in open_notes:
                    start, vel = open_notes.pop(pitch)
                    notes.append(new(NoteEvent, (start * ticks_per_step, pitch,
                                                 (step - start or 1) * ticks_per_step, vel)))
                if idx < off_base:
                    open_notes[pitch] = (step, velocity)
            elif idx == EOS:
                break
        elif idx < velocity_base:
            step += idx - shift_base + 1
        elif idx < total:
            velocity = bin_velocities[idx - velocity_base]
        # PAD, BOS and out-of-vocabulary ids are ignored
    for pitch in sorted(open_notes):
        start, vel = open_notes[pitch]
        notes.append(new(NoteEvent, (start * ticks_per_step, pitch,
                                     (step - start or 1) * ticks_per_step, vel)))
    return MidiPiece(ticks_per_beat=ticks_per_beat, notes=tuple(notes))

