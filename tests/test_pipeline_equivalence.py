"""The file pipeline against its earlier, slower code, kept here verbatim.

`encode`, `decode`, `_parse_track`/`parse_midi`, `write_midi`,
`note_to_steps`/`to_piano_roll` and `pitch_entropy` below are the
implementations the integer-arithmetic tokenizer and the inline SMF byte
loops replaced; `token_to_id` and `id_to_token`, which the reference
tokenizer reads the id layout through, were `Vocabulary` methods.
`polyphony_rate` and `groove_consistency` are the metrics as they were
before the uint8 column count. Every output of the current code must equal
theirs exactly: the same ids, pieces, bytes, arrays and floats, and for a
corrupt file the same exception type and message.
"""

import struct
from typing import Iterable

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emogen import metrics, midi_io, tokenizer
from emogen.errors import (BadMetricSetting, EmptyPiece, EmptyRoll, MalformedEvent,
                           MalformedHeader, TokenizerError, TooShort, TruncatedTrack,
                           UnsupportedFormat, check_int)
from emogen.midi_io import (DEFAULT_TEMPO, MidiPiece, NoteEvent, PianoRoll, decode_vlq,
                            encode_vlq)
from emogen.tokenizer import BOS, DEFAULT_VELOCITY, EOS, PAD, TokenSequence, Vocabulary

EQUIVALENCE = settings(max_examples=200, deadline=None)


# --- reference: the earlier code, verbatim ---

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
    return PianoRoll(grid=grid, onsets=onsets)


# tokens are ("PAD",), ("NOTE_ON", pitch), ("TIME_SHIFT", steps), ...

def token_to_id(vocab: Vocabulary, token: tuple) -> int:
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
        base = vocab.note_on_base if name == "NOTE_ON" else vocab.note_off_base
        return base + token[1]
    if name == "TIME_SHIFT":
        if not 1 <= token[1] <= vocab.time_shift_bins:
            raise TokenizerError(f"time shift {token[1]} outside 1..{vocab.time_shift_bins}")
        return vocab.time_shift_base + token[1] - 1
    if name == "VELOCITY":
        if not 0 <= token[1] < vocab.velocity_bins:
            raise TokenizerError(
                f"velocity bin {token[1]} outside 0..{vocab.velocity_bins - 1}")
        return vocab.velocity_base + token[1]
    raise TokenizerError(f"unknown token {token!r}")


def id_to_token(vocab: Vocabulary, idx: int) -> tuple:
    if not 0 <= idx < vocab.total_size:
        raise TokenizerError(f"id {idx} outside vocabulary of {vocab.total_size}")
    if idx == PAD:
        return ("PAD",)
    if idx == BOS:
        return ("BOS",)
    if idx == EOS:
        return ("EOS",)
    if idx < vocab.note_off_base:
        return ("NOTE_ON", idx - vocab.note_on_base)
    if idx < vocab.time_shift_base:
        return ("NOTE_OFF", idx - vocab.note_off_base)
    if idx < vocab.velocity_base:
        return ("TIME_SHIFT", idx - vocab.time_shift_base + 1)
    return ("VELOCITY", idx - vocab.velocity_base)


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
            ids.append(token_to_id(vocab, ("TIME_SHIFT", shift)))
            gap -= shift
        step = at
        for pitch in sorted(offs):
            ids.append(token_to_id(vocab, ("NOTE_OFF", pitch)))
        for pitch, velocity in sorted(ons):
            vbin = vocab.velocity_to_bin(velocity)
            if vbin != velocity_bin:
                ids.append(token_to_id(vocab, ("VELOCITY", vbin)))
                velocity_bin = vbin
            ids.append(token_to_id(vocab, ("NOTE_ON", pitch)))
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
        token = id_to_token(vocab, idx)
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


def pitch_entropy(piece: MidiPiece) -> float:
    """Shannon entropy (bits) of the piece's pitch distribution."""
    if not piece.notes:
        raise EmptyPiece("pitch entropy undefined for a piece with no notes")
    counts = np.zeros(128)
    for note in piece.notes:
        counts[note.pitch] += 1
    probs = counts[counts > 0] / counts.sum()
    return float(-(probs * np.log2(probs)).sum())


def polyphony_rate(roll: PianoRoll, denominator: str = "sounding") -> float:
    """Fraction of time steps with >= 2 simultaneous pitches.

    denominator="sounding" counts only steps with at least one note (default,
    so silence cannot inflate apparent monophony); "total" uses all steps.
    """
    if roll.num_steps == 0:
        raise EmptyRoll("polyphony rate undefined for an empty roll")
    column_counts = roll.grid.sum(axis=0)
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


# --- inputs ---

def _pieces(pitches=st.integers(0, 127), onsets=st.integers(0, 4000), max_notes=40,
            durations=st.integers(1, 3000)):
    """Pieces at odd and common resolutions; a narrow pitch range makes
    same-pitch overlaps and shared onsets common."""
    note = st.builds(NoteEvent, onset=onsets, pitch=pitches,
                     duration=durations, velocity=st.integers(1, 127))
    return st.builds(MidiPiece, ticks_per_beat=st.sampled_from([1, 7, 96, 480, 1000]),
                     notes=st.lists(note, max_size=max_notes).map(tuple),
                     tempo_us_per_beat=st.integers(1, 2**24 - 1))


PIECES = st.one_of(_pieces(), _pieces(pitches=st.integers(58, 62)))
# few notes far apart: thousands of TIME_SHIFT tokens, far past any max_len
SPARSE_PIECES = _pieces(onsets=st.integers(0, 100_000), max_notes=6)
# few notes far apart and long: delta times of 3 and 4 VLQ bytes (from 2**14
# and 2**21 ticks), and past 2**28 ticks, which no SMF holds
_TICKS = st.one_of(st.integers(0, 2**14), st.integers(2**14, 2**21), st.integers(2**21, 2**28),
                   st.integers(2**28, 2**29))
LONG_PIECES = _pieces(onsets=_TICKS, durations=_TICKS.map(lambda ticks: ticks or 1), max_notes=4)
VOCABS = st.builds(Vocabulary, time_shift_bins=st.integers(1, 150),
                   velocity_bins=st.integers(1, 130))
STEPS_PER_BEAT = st.integers(1, 12)


def _ids(vocab: Vocabulary):
    """Any id sequence: in the vocabulary, specials, outside it either way, and
    ons, offs and shifts of two pitches so that notes open and close often."""
    special = st.sampled_from([PAD, BOS, EOS, -1, -300, vocab.total_size,
                               vocab.total_size + 1000])
    near = st.sampled_from([token_to_id(vocab, token) for token in (
        ("NOTE_ON", 60), ("NOTE_ON", 61), ("NOTE_OFF", 60), ("NOTE_OFF", 61),
        ("TIME_SHIFT", 1), ("VELOCITY", vocab.velocity_bins - 1))])
    return st.lists(st.one_of(st.integers(0, vocab.total_size - 1), special, near),
                    min_size=16, max_size=300)


def _rich_smf() -> bytes:
    """Format 1, two tracks and a foreign chunk, with every event kind the parser
    reads: running status, multi-byte deltas, sysex, meta, tempo and all channel
    messages."""
    conductor = (b"\x00\xff\x03\x05piano" + b"\x00\xff\x51\x03\x06\x1a\x80"
                 + b"\x00\xf0\x03\x7e\x09\x01" + b"\x81\x00\xf7\x01\x42" + b"\x00\xff\x2f\x00")
    music = (b"\x00\xc0\x05" + b"\x00\xd0\x40" + b"\x00\xb0\x07\x64" + b"\x00\xe0\x00\x40"
             + b"\x00\xa0\x3c\x20" + b"\x00\x90\x3c\x50" + b"\x10\x40\x51" + b"\x83\x60\x3c\x00"
             + b"\x00\x80\x40\x00" + b"\x00\x91\x3c\x30" + b"\x81\x80\x00\x3c\x40"
             + b"\x00\x90\x45\x20" + b"\x00\xff\x2f\x00")
    chunks = [(b"MTrk", conductor), (b"XFIH", b"\x01\x02\x03"), (b"MTrk", music)]
    return (b"MThd" + struct.pack(">IHHH", 6, 1, 2, 96)
            + b"".join(tag + struct.pack(">I", len(body)) + body for tag, body in chunks))


SMF_BASES = [_rich_smf(), write_midi(MidiPiece(480, tuple(
    NoteEvent(onset=60 * i, pitch=60 + i % 5, duration=90 + 40 * (i % 3), velocity=30 + i)
    for i in range(24))))]


def _outcome(call, *args):
    """The value a call returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


# --- tokenizer ---

@EQUIVALENCE
@given(PIECES, VOCABS, st.integers(1, 12))  # encode takes an int steps per beat >= 1
def test_encode_ids_match(piece, vocab, steps_per_beat):
    assert (tokenizer.encode(piece, vocab, steps_per_beat).ids
            == encode(piece, vocab, steps_per_beat).ids)


@EQUIVALENCE
@given(st.one_of(PIECES, SPARSE_PIECES), st.sampled_from([2, 3, 256]),
       st.sampled_from([Vocabulary(), Vocabulary(time_shift_bins=1, velocity_bins=1)]),
       st.sampled_from([1, 4, 32]))
def test_encode_truncation_matches(piece, max_len, vocab, steps_per_beat):
    new = tokenizer.encode(piece, vocab, steps_per_beat, max_len).ids
    assert new == encode(piece, vocab, steps_per_beat, max_len).ids
    assert len(new) <= max_len


@EQUIVALENCE
@given(st.data(), VOCABS, st.integers(1, 960))
def test_decode_pieces_match(data, vocab, steps_per_beat):
    """Both build the piece with `MidiPiece`, which refuses more ticks per beat
    than an SMF holds (from 274 steps per beat that do not divide 480)."""
    ids = data.draw(_ids(vocab))
    assert (_outcome(tokenizer.decode, ids, vocab, steps_per_beat)
            == _outcome(decode, ids, vocab, steps_per_beat))


@EQUIVALENCE
@given(PIECES, VOCABS, STEPS_PER_BEAT)
def test_round_trip_matches(piece, vocab, steps_per_beat):
    seq = tokenizer.encode(piece, vocab, steps_per_beat)
    assert tokenizer.decode(seq, vocab, steps_per_beat) == decode(seq, vocab, steps_per_beat)


# --- SMF ---

@EQUIVALENCE
@given(PIECES)
def test_write_bytes_match(piece):
    data = midi_io.write_midi(piece)
    assert data == write_midi(piece)
    assert midi_io.parse_midi(data) == parse_midi(data)


@EQUIVALENCE
@given(LONG_PIECES)
@example(MidiPiece(96, (NoteEvent(2**21 - 1, 60, 2**28 - 2**21, 9),)))  # 3 then 4 bytes
@example(MidiPiece(96, (NoteEvent(0, 60, 2**28 - 1, 9),)))  # the longest delta a file holds
@example(MidiPiece(96, (NoteEvent(2**28, 60, 1, 9),)))  # one tick too far
def test_long_delta_times_match(piece):
    data = _outcome(midi_io.write_midi, piece)
    assert data == _outcome(write_midi, piece)
    if isinstance(data, bytes):
        assert _outcome(midi_io.parse_midi, data) == _outcome(parse_midi, data)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(range(len(SMF_BASES))),
       st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=4))
def test_parse_matches_on_overwritten_bytes(base, edits):
    data = bytearray(SMF_BASES[base])
    for pos, value in edits:
        data[pos % len(data)] = value
    data = bytes(data)
    assert _outcome(midi_io.parse_midi, data) == _outcome(parse_midi, data)


def test_rich_file_reads_every_event_kind():
    piece = midi_io.parse_midi(SMF_BASES[0])
    assert piece == parse_midi(SMF_BASES[0])
    assert piece.tempo_us_per_beat == 400_000 and len(piece.notes) == 5


# --- notes and metrics ---

@EQUIVALENCE
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(60, 62), st.integers(1, 3),
                          st.integers(1, 3)), max_size=20))
def test_note_order_matches(fields):
    notes = [NoteEvent(*f) for f in fields]
    assert MidiPiece(480, tuple(notes)).notes == tuple(
        sorted(notes, key=lambda n: (n.onset, n.pitch)))


@EQUIVALENCE
@given(PIECES, STEPS_PER_BEAT)
def test_piano_roll_matches(piece, steps_per_beat):
    new, old = midi_io.to_piano_roll(piece, steps_per_beat), to_piano_roll(piece, steps_per_beat)
    assert np.array_equal(new.grid, old.grid) and np.array_equal(new.onsets, old.onsets)


def _evaluate_piece(piece: MidiPiece, steps_per_beat: int, denominator: str):
    """`metrics.evaluate_piece` on the reference piano roll and metrics."""
    roll = to_piano_roll(piece, steps_per_beat)
    triple = metrics.MetricTriple(polyphony_rate=polyphony_rate(roll, denominator),
                                  pitch_entropy=pitch_entropy(piece),
                                  groove_consistency=groove_consistency(roll))
    return triple, metrics.music_quality_loss(triple)


@EQUIVALENCE
@given(PIECES, STEPS_PER_BEAT, st.sampled_from(["sounding", "total"]))
def test_metric_floats_match(piece, steps_per_beat, denominator):
    assert _outcome(metrics.pitch_entropy, piece) == _outcome(pitch_entropy, piece)
    assert (_outcome(metrics.evaluate_piece, piece, steps_per_beat, 16, denominator)
            == _outcome(_evaluate_piece, piece, steps_per_beat, denominator))


@EQUIVALENCE
@given(st.sampled_from([bool, np.int64, np.float64]), st.integers(1, 300), st.integers(0, 40),
       st.sampled_from([0.0, 0.02, 0.5, 1.0]), st.integers(0, 2**32 - 1),
       st.sampled_from(["sounding", "total", "bogus"]), st.integers(1, 20))
@example(bool, 256, 3, 1.0, 0, "sounding", 1)  # 256 notes in a column, a uint8 count's 0
@example(bool, 257, 3, 1.0, 0, "total", 1)
@example(np.int64, 128, 3, 1.0, 0, "sounding", 1)  # counts, not flags
def test_roll_metrics_match_on_any_roll(dtype, rows, steps, density, seed, denominator,
                                        steps_per_measure):
    """Rolls a caller can build by hand: any number of rows, and grids of
    integers (from -2 to 2) or floats as well as flags."""
    rng = np.random.default_rng(seed)
    grid = rng.random((rows, steps)) < density
    if dtype is not bool:
        grid = (grid * rng.integers(-2, 3, grid.shape)).astype(dtype)
    roll = PianoRoll(grid=grid, onsets=grid)
    assert (_outcome(metrics.polyphony_rate, roll, denominator)
            == _outcome(polyphony_rate, roll, denominator))
    assert (_outcome(metrics.groove_consistency, roll, steps_per_measure)
            == _outcome(groove_consistency, roll, steps_per_measure))
