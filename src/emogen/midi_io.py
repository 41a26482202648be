"""Standard MIDI File parsing/writing and piano-roll rasterization.

Supports SMF format 0 and format 1 (tracks merged by absolute tick).
Only note events and the tempo meta-event are interpreted; everything
else is skipped. All functions are pure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import MalformedEvent, MalformedHeader, TruncatedTrack, UnsupportedFormat

DEFAULT_TEMPO = 500_000  # microseconds per beat (120 BPM)


@dataclass(frozen=True, order=True)
class NoteEvent:
    """A single note: pitch and velocity per MIDI, times in ticks."""

    onset: int
    pitch: int
    duration: int
    velocity: int

    def __post_init__(self):
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch {self.pitch} outside 0..127")
        if self.onset < 0:
            raise ValueError(f"negative onset {self.onset}")
        if self.duration < 1:
            raise ValueError(f"duration {self.duration} < 1")
        if not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity {self.velocity} outside 1..127")

    @property
    def end(self) -> int:
        return self.onset + self.duration


@dataclass(frozen=True)
class MidiPiece:
    """A single-track piece. Notes are canonicalized to (onset, pitch) order."""

    ticks_per_beat: int
    notes: tuple[NoteEvent, ...]
    tempo_us_per_beat: int = DEFAULT_TEMPO

    def __post_init__(self):
        if self.ticks_per_beat <= 0:
            raise ValueError(f"ticks_per_beat {self.ticks_per_beat} <= 0")
        if self.tempo_us_per_beat <= 0:
            raise ValueError(f"tempo {self.tempo_us_per_beat} <= 0")
        ordered = tuple(sorted(self.notes, key=lambda n: (n.onset, n.pitch)))
        object.__setattr__(self, "notes", ordered)

    def __len__(self) -> int:
        return len(self.notes)


@dataclass
class PianoRoll:
    """Boolean pitch-by-time grid; `onsets` marks only the first step of each note."""

    steps_per_beat: int
    grid: np.ndarray  # (128, T) bool
    onsets: np.ndarray  # (128, T) bool

    @property
    def num_steps(self) -> int:
        return self.grid.shape[1]


# --- variable-length quantities ---

def encode_vlq(value: int) -> bytes:
    """Encode a non-negative int as an SMF variable-length quantity."""
    if value < 0:
        raise ValueError("VLQ values are non-negative")
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
    notes: list[NoteEvent] = []
    tempo: int | None = None
    open_notes: dict[int, tuple[int, int]] = {}  # pitch -> (onset, velocity)
    pos = 0
    tick = 0
    status = 0

    def close(pitch: int, at: int):
        onset, vel = open_notes.pop(pitch)
        notes.append(NoteEvent(onset, pitch, max(1, at - onset), vel))

    while pos < len(data):
        delta, pos = decode_vlq(data, pos)
        tick += delta
        if pos >= len(data):
            raise TruncatedTrack("track ended after a delta time")
        byte = data[pos]
        if byte & 0x80:
            status = byte
            pos += 1
        elif status == 0:
            raise TruncatedTrack("data byte with no running status")

        kind = status & 0xF0
        if status == 0xFF:  # meta
            if pos >= len(data):
                raise TruncatedTrack("truncated meta event")
            meta_type = data[pos]
            pos += 1
            length, pos = decode_vlq(data, pos)
            if pos + length > len(data):
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
            if pos + length > len(data):
                raise TruncatedTrack("sysex payload truncated")
            pos += length
            status = 0
        elif kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):  # two data bytes
            if pos + 2 > len(data):
                raise TruncatedTrack("channel event truncated")
            d1, d2 = data[pos], data[pos + 1]
            pos += 2
            if kind in (0x80, 0x90) and (d1 | d2) & 0x80:
                raise MalformedEvent(f"note event data byte >= 0x80 at track byte {pos - 2}")
            if kind == 0x90 and d2 > 0:
                if d1 in open_notes:  # later note-on truncates the open note
                    close(d1, tick)
                open_notes[d1] = (tick, d2)
            elif kind == 0x80 or (kind == 0x90 and d2 == 0):
                if d1 in open_notes:
                    close(d1, tick)
        elif kind in (0xC0, 0xD0):  # one data byte
            if pos + 1 > len(data):
                raise TruncatedTrack("channel event truncated")
            pos += 1
        else:
            raise TruncatedTrack(f"unexpected status byte 0x{status:02x}")

    for pitch in sorted(open_notes):
        close(pitch, max(tick, open_notes[pitch][0] + 1))
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
    """Serialize a MidiPiece as a format-0 SMF byte string."""
    events: list[tuple[int, int, int, int]] = []  # (tick, order, pitch, velocity)
    for note in piece.notes:
        events.append((note.onset, 1, note.pitch, note.velocity))
        events.append((note.end, 0, note.pitch, 0))
    events.sort()

    track = bytearray()
    track += encode_vlq(0)
    track += bytes([0xFF, 0x51, 0x03]) + piece.tempo_us_per_beat.to_bytes(3, "big")
    tick = 0
    for at, order, pitch, velocity in events:
        track += encode_vlq(at - tick)
        tick = at
        status = 0x90 if order == 1 else 0x80
        track += bytes([status, pitch, velocity])
    track += encode_vlq(0) + bytes([0xFF, 0x2F, 0x00])

    out = bytearray()
    out += b"MThd" + struct.pack(">IHHH", 6, 0, 1, piece.ticks_per_beat)
    out += b"MTrk" + struct.pack(">I", len(track)) + bytes(track)
    return bytes(out)


# --- rasterization ---

def note_to_steps(note: NoteEvent, steps_per_beat: int, ticks_per_beat: int) -> tuple[int, int]:
    """Half-open step span [start, end) covered by a note; always >= 1 step."""
    start = note.onset * steps_per_beat // ticks_per_beat
    end = -((-note.end * steps_per_beat) // ticks_per_beat)  # ceil division
    return start, max(end, start + 1)


def to_piano_roll(piece: MidiPiece, steps_per_beat: int = 4) -> PianoRoll:
    """Rasterize a piece onto a boolean 128 x T pitch/time grid."""
    if steps_per_beat <= 0:
        raise ValueError("steps_per_beat must be positive")
    spans = [(n.pitch, *note_to_steps(n, steps_per_beat, piece.ticks_per_beat))
             for n in piece.notes]
    total = max((end for _, _, end in spans), default=0)
    grid = np.zeros((128, total), dtype=bool)
    onsets = np.zeros((128, total), dtype=bool)
    for pitch, start, end in spans:
        grid[pitch, start:end] = True
        onsets[pitch, start] = True
    return PianoRoll(steps_per_beat=steps_per_beat, grid=grid, onsets=onsets)
