"""Standard MIDI File parsing/writing and piano-roll rasterization.

Supports SMF format 0 and format 1 (tracks merged by absolute tick).
Only note events and the tempo meta-event are interpreted; everything
else is skipped. All functions are pure.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (BadMetricSetting, MalformedEvent, MalformedHeader, MalformedPiece,
                     RollTooLong, TruncatedTrack, UnsupportedFormat, check_int)

DEFAULT_TEMPO = 500_000  # microseconds per beat (120 BPM)
# what an SMF can hold: a division below the SMPTE bit, a three-byte tempo
# and a variable-length quantity of at most four bytes
MAX_TICKS_PER_BEAT, MAX_TEMPO, VLQ_LIMIT = 0x7FFF, 0xFFFFFF, 1 << 28
MAX_ROLL_STEPS = 1 << 18  # about 9 hours at 4 steps per beat and 120 BPM


class NoteEvent(namedtuple("NoteEvent", "onset pitch duration velocity")):
    """A single note: pitch and velocity per MIDI, times in ticks.

    A named tuple, so notes sort in field order and a note equals the plain
    tuple of its fields. `NoteEvent(...)` checks every range. The readers
    have already checked theirs and build notes with
    `tuple.__new__(NoteEvent, fields)`, which skips the checks.
    """

    __slots__ = ()

    def __new__(cls, onset: int, pitch: int, duration: int, velocity: int):
        if not 0 <= pitch <= 127:
            raise MalformedPiece(f"pitch {pitch} outside 0..127")
        if onset < 0:
            raise MalformedPiece(f"negative onset {onset}")
        if duration < 1:
            raise MalformedPiece(f"duration {duration} < 1")
        if not 1 <= velocity <= 127:
            raise MalformedPiece(f"velocity {velocity} outside 1..127")
        return tuple.__new__(cls, (onset, pitch, duration, velocity))

    @property
    def end(self) -> int:
        return self.onset + self.duration


@dataclass(frozen=True)
class MidiPiece:
    """A single-track piece, in ranges an SMF can hold. Notes are
    canonicalized to (onset, pitch) order."""

    ticks_per_beat: int
    notes: tuple[NoteEvent, ...]
    tempo_us_per_beat: int = DEFAULT_TEMPO

    def __post_init__(self):
        if not 0 < self.ticks_per_beat <= MAX_TICKS_PER_BEAT:
            raise MalformedPiece(f"ticks_per_beat {self.ticks_per_beat} outside "
                                 f"1..{MAX_TICKS_PER_BEAT}")
        if not 0 < self.tempo_us_per_beat <= MAX_TEMPO:
            raise MalformedPiece(f"tempo {self.tempo_us_per_beat} outside 1..{MAX_TEMPO}")
        ordered = tuple(sorted(self.notes, key=itemgetter(0, 1)))
        object.__setattr__(self, "notes", ordered)

    def __len__(self) -> int:
        return len(self.notes)


@dataclass
class PianoRoll:
    """Boolean pitch-by-time grid; `onsets` marks only the first step of each note."""

    grid: np.ndarray  # (128, T) bool
    onsets: np.ndarray  # (128, T) bool

    @property
    def num_steps(self) -> int:
        return self.grid.shape[1]


# --- variable-length quantities ---

def encode_vlq(value: int) -> bytes:
    """Encode an int in [0, 2**28) as an SMF variable-length quantity."""
    if not 0 <= value < VLQ_LIMIT:
        raise MalformedPiece(f"VLQ value {value} outside 0..{VLQ_LIMIT - 1}")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def decode_vlq(data: bytes, pos: int) -> tuple[int, int]:
    """Decode a VLQ at `pos`; returns (value, next position)."""
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise TruncatedTrack("byte stream ended inside a variable-length quantity")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise TruncatedTrack("variable-length quantity longer than 4 bytes")


# --- parsing ---

def _parse_track(data: bytes) -> tuple[list[NoteEvent], int | None]:
    """The track's notes and its first tempo (None without one)."""
    # every field is range-checked here, so notes skip NoteEvent's checks; the
    # tick never decreases, so `tick - onset or 1` is a duration of at least 1
    new = tuple.__new__
    notes: list[NoteEvent] = []
    tempo: int | None = None
    open_notes: dict[int, tuple[int, int]] = {}  # pitch -> (onset, velocity)
    size = len(data)
    pos = 0
    tick = 0
    status = 0

    while pos < size:
        delta = data[pos]  # one- and two-byte delta times are read inline
        if delta < 0x80:
            pos += 1
        elif pos + 1 < size and data[pos + 1] < 0x80:
            delta, pos = ((delta & 0x7F) << 7) | data[pos + 1], pos + 2
        else:
            delta, pos = decode_vlq(data, pos)
        tick += delta
        if pos >= size:
            raise TruncatedTrack("track ended after a delta time")
        byte = data[pos]
        if byte & 0x80:
            status = byte
            pos += 1
        elif status == 0:
            raise TruncatedTrack("data byte with no running status")

        kind = status & 0xF0
        if kind == 0x90 or kind == 0x80:  # note events, two data bytes
            if pos + 2 > size:
                raise TruncatedTrack("channel event truncated")
            d1, d2 = data[pos], data[pos + 1]
            pos += 2
            if (d1 | d2) & 0x80:
                raise MalformedEvent(f"note event data byte >= 0x80 at track byte {pos - 2}")
            if d1 in open_notes:  # note-off, or a later note-on truncating the open note
                onset, vel = open_notes.pop(d1)
                notes.append(new(NoteEvent, (onset, d1, tick - onset or 1, vel)))
            if kind == 0x90 and d2 > 0:
                open_notes[d1] = (tick, d2)
        elif status == 0xFF:  # meta
            if pos >= size:
                raise TruncatedTrack("truncated meta event")
            meta_type = data[pos]
            pos += 1
            length, pos = decode_vlq(data, pos)
            if pos + length > size:
                raise TruncatedTrack("meta event payload truncated")
            payload = data[pos:pos + length]
            pos += length
            if meta_type == 0x51 and length == 3 and tempo is None:
                tempo = int.from_bytes(payload, "big")
                if tempo == 0:
                    raise MalformedEvent("zero tempo")
            if meta_type == 0x2F:
                break
            status = 0  # meta/sysex cancel running status
        elif status in (0xF0, 0xF7):  # sysex
            length, pos = decode_vlq(data, pos)
            if pos + length > size:
                raise TruncatedTrack("sysex payload truncated")
            pos += length
            status = 0
        elif kind in (0xA0, 0xB0, 0xE0):  # two data bytes
            if pos + 2 > size:
                raise TruncatedTrack("channel event truncated")
            pos += 2
        elif kind in (0xC0, 0xD0):  # one data byte
            if pos + 1 > size:
                raise TruncatedTrack("channel event truncated")
            pos += 1
        else:
            raise TruncatedTrack(f"unexpected status byte 0x{status:02x}")

    for pitch in sorted(open_notes):  # notes left open end at the track's last tick
        onset, vel = open_notes[pitch]
        notes.append(new(NoteEvent, (onset, pitch, tick - onset or 1, vel)))
    return notes, tempo


def parse_midi(data: bytes) -> MidiPiece:
    """Parse SMF bytes (format 0 or 1) into a MidiPiece."""
    if len(data) < 14 or data[:4] != b"MThd":
        raise MalformedHeader("missing MThd chunk")
    header_len, fmt, ntrks, division = struct.unpack(">IHHH", data[4:14])
    if header_len != 6:
        raise MalformedHeader(f"MThd length {header_len} != 6")
    if fmt == 2:
        raise UnsupportedFormat("SMF format 2 is not supported")
    if fmt > 2:
        raise MalformedHeader(f"unknown SMF format {fmt}")
    if division & 0x8000:
        raise UnsupportedFormat("SMPTE time division is not supported")
    if division == 0:
        raise MalformedHeader("zero ticks per beat")

    notes: list[NoteEvent] = []
    tempo: int | None = None
    pos = 14
    tracks_seen = 0
    while tracks_seen < ntrks:
        if pos + 8 > len(data):
            raise TruncatedTrack("expected an MTrk chunk")
        magic = data[pos:pos + 4]
        length = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        if pos + 8 + length > len(data):
            raise TruncatedTrack("track chunk longer than the file")
        if magic == b"MTrk":
            track_notes, track_tempo = _parse_track(data[pos + 8:pos + 8 + length])
            notes.extend(track_notes)
            if tempo is None:
                tempo = track_tempo
            tracks_seen += 1
        pos += 8 + length

    return MidiPiece(ticks_per_beat=division, notes=tuple(notes),
                     tempo_us_per_beat=tempo if tempo is not None else DEFAULT_TEMPO)


# --- writing ---

def write_midi(piece: MidiPiece) -> bytes:
    """Serialize a MidiPiece as a format-0 SMF byte string, built as one list of ints."""
    events: list[tuple[int, int, int, int]] = []  # (tick, status, pitch, velocity): offs first
    for onset, pitch, duration, velocity in piece.notes:
        events.append((onset, 0x90, pitch, velocity))
        events.append((onset + duration, 0x80, pitch, 0))
    events.sort()

    out = [*b"MThd", 0, 0, 0, 6, 0, 0, 0, 1, *piece.ticks_per_beat.to_bytes(2, "big"),
           *b"MTrk", 0, 0, 0, 0, 0, 0xFF, 0x51, 0x03, *piece.tempo_us_per_beat.to_bytes(3, "big")]
    tick = 0
    for at, status, pitch, velocity in events:
        delta = at - tick  # one- and two-byte delta times are written inline
        if delta < 0x80:
            out.append(delta)
        elif delta < 0x4000:
            out += (delta >> 7) | 0x80, delta & 0x7F
        else:
            out += encode_vlq(delta)
        tick = at
        out += status, pitch, velocity
    out += 0, 0xFF, 0x2F, 0x00
    out[18:22] = (len(out) - 22).to_bytes(4, "big")  # the track's length, known last
    return bytes(out)


# --- rasterization ---

def note_spans(piece: MidiPiece, steps_per_beat: int) -> list[tuple[int, int, int, int]]:
    """(start, end, pitch, velocity) per note, in order; [start, end) spans >= 1 step."""
    tpb = piece.ticks_per_beat
    spans = []
    for onset, pitch, duration, velocity in piece.notes:
        start = onset * steps_per_beat // tpb
        end = -((-(onset + duration) * steps_per_beat) // tpb)  # ceil division
        spans.append((start, end if end > start else start + 1, pitch, velocity))
    return spans


def to_piano_roll(piece: MidiPiece, steps_per_beat: int = 4) -> PianoRoll:
    """Rasterize a piece onto a boolean 128 x T pitch/time grid. A grid of
    more than `MAX_ROLL_STEPS` steps is `RollTooLong`, refused before any
    allocation."""
    check_int("steps_per_beat", steps_per_beat, 1, BadMetricSetting)
    spans = note_spans(piece, steps_per_beat)
    total = max((end for _, end, _, _ in spans), default=0)
    if total > MAX_ROLL_STEPS:
        raise RollTooLong(f"piece spans {total} steps at {steps_per_beat} per beat, "
                          f"above the limit of {MAX_ROLL_STEPS}")
    grid = np.zeros((128, total), dtype=bool)
    onsets = np.zeros((128, total), dtype=bool)
    for start, end, pitch, _ in spans:
        grid[pitch, start:end] = True
        onsets[pitch, start] = True
    return PianoRoll(grid=grid, onsets=onsets)
