import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emogen.errors import (EmogenError, MalformedEvent, MalformedHeader,
                           TruncatedTrack, UnsupportedFormat)
from emogen.midi_io import (MidiPiece, NoteEvent, decode_vlq, encode_vlq,
                            parse_midi, to_piano_roll, write_midi)

from conftest import random_canonical_piece


def _smf(track_bytes: bytes, fmt: int = 0, division: int = 480) -> bytes:
    header = b"MThd" + struct.pack(">IHHH", 6, fmt, 1, division)
    return header + b"MTrk" + struct.pack(">I", len(track_bytes)) + track_bytes


class TestVlq:
    def test_two_byte_value(self):
        # 0x81 0x00 encodes 128 per the SMF variable-length rules
        assert decode_vlq(b"\x81\x00", 0) == (128, 2)
        assert encode_vlq(128) == b"\x81\x00"

    @pytest.mark.parametrize("value", [0, 1, 127, 128, 0x3FFF, 0x4000, 0x0FFFFFFF])
    def test_round_trip(self, value):
        data = encode_vlq(value)
        assert decode_vlq(data, 0) == (value, len(data))

    def test_truncated(self):
        with pytest.raises(TruncatedTrack):
            decode_vlq(b"\x81", 0)


class TestParse:
    def test_hand_assembled_two_note_file(self):
        # C4 quarter note then E4 quarter note at 480 ticks per beat
        track = bytes([
            0x00, 0x90, 60, 100,   # t=0    note-on C4
            0x83, 0x60, 0x80, 60, 0,  # t=480  note-off C4 (delta 480 = 0x83 0x60)
            0x00, 0x90, 64, 100,   # t=480  note-on E4
            0x83, 0x60, 0x80, 64, 0,  # t=960  note-off E4
            0x00, 0xFF, 0x2F, 0x00,
        ])
        piece = parse_midi(_smf(track))
        assert piece.ticks_per_beat == 480
        assert piece.notes == (NoteEvent(0, 60, 480, 100), NoteEvent(480, 64, 480, 100))

    def test_running_status(self):
        track = bytes([
            0x00, 0x90, 60, 80,
            0x10, 64, 80,          # running status: second note-on
            0x10, 0x80, 60, 0,
            0x10, 64, 0,           # running status note-off (0x80)
            0x00, 0xFF, 0x2F, 0x00,
        ])
        piece = parse_midi(_smf(track))
        assert [n.pitch for n in piece.notes] == [60, 64]

    def test_note_on_velocity_zero_closes(self):
        track = bytes([0x00, 0x90, 60, 80, 0x20, 0x90, 60, 0, 0x00, 0xFF, 0x2F, 0x00])
        piece = parse_midi(_smf(track))
        assert piece.notes == (NoteEvent(0, 60, 0x20, 80),)

    def test_unmatched_note_on_closed_at_end(self):
        track = bytes([0x00, 0x90, 60, 80, 0x40, 0xFF, 0x2F, 0x00])
        piece = parse_midi(_smf(track))
        assert piece.notes == (NoteEvent(0, 60, 0x40, 80),)

    def test_tempo_meta(self):
        track = bytes([0x00, 0xFF, 0x51, 0x03, 0x0F, 0x42, 0x40,  # 1,000,000 us
                       0x00, 0xFF, 0x2F, 0x00])
        assert parse_midi(_smf(track)).tempo_us_per_beat == 1_000_000

    def test_default_tempo(self):
        track = bytes([0x00, 0xFF, 0x2F, 0x00])
        assert parse_midi(_smf(track)).tempo_us_per_beat == 500_000

    def test_same_pitch_overlap_truncates(self):
        track = bytes([
            0x00, 0x90, 60, 80,
            0x30, 0x90, 60, 90,    # restrikes pitch 60 before the first note-off
            0x30, 0x80, 60, 0,
            0x00, 0xFF, 0x2F, 0x00,
        ])
        piece = parse_midi(_smf(track))
        assert piece.notes == (NoteEvent(0, 60, 0x30, 80), NoteEvent(0x30, 60, 0x30, 90))

    def test_format1_tracks_merged(self):
        t1 = bytes([0x00, 0x90, 60, 80, 0x40, 0x80, 60, 0, 0x00, 0xFF, 0x2F, 0x00])
        t2 = bytes([0x00, 0x90, 72, 80, 0x40, 0x80, 72, 0, 0x00, 0xFF, 0x2F, 0x00])
        data = (b"MThd" + struct.pack(">IHHH", 6, 1, 2, 480)
                + b"MTrk" + struct.pack(">I", len(t1)) + t1
                + b"MTrk" + struct.pack(">I", len(t2)) + t2)
        piece = parse_midi(data)
        assert [n.pitch for n in piece.notes] == [60, 72]

    def test_bad_magic(self):
        with pytest.raises(MalformedHeader):
            parse_midi(b"XXXX" + b"\x00" * 20)

    def test_bad_header_length(self):
        data = b"MThd" + struct.pack(">IHHH", 7, 0, 1, 480) + b"\x00" * 8
        with pytest.raises(MalformedHeader):
            parse_midi(data)

    def test_format2_rejected(self):
        track = bytes([0x00, 0xFF, 0x2F, 0x00])
        with pytest.raises(UnsupportedFormat):
            parse_midi(_smf(track, fmt=2))

    def test_smpte_division_rejected(self):
        track = bytes([0x00, 0xFF, 0x2F, 0x00])
        with pytest.raises(UnsupportedFormat):
            parse_midi(_smf(track, division=0x8000 | 25))

    def test_truncated_track(self):
        track = bytes([0x00, 0x90, 60])
        data = _smf(bytes([0x00, 0xFF, 0x2F, 0x00]))[:14] \
            + b"MTrk" + struct.pack(">I", len(track)) + track
        with pytest.raises(TruncatedTrack):
            parse_midi(data)

    def test_track_longer_than_file(self):
        data = _smf(bytes([0x00, 0xFF, 0x2F, 0x00]))
        with pytest.raises(TruncatedTrack):
            parse_midi(data[:-2])

    @pytest.mark.parametrize("event", [[0x90, 0x80 | 60, 80], [0x90, 60, 0x80 | 80],
                                       [0x80, 60, 0x90]])
    def test_note_data_byte_over_127_rejected(self, event):
        track = bytes([0x00, 0x90, 60, 80, 0x10, *event, 0x00, 0xFF, 0x2F, 0x00])
        with pytest.raises(MalformedEvent):
            parse_midi(_smf(track))

    def test_zero_tempo_rejected(self):
        track = bytes([0x00, 0xFF, 0x51, 0x03, 0, 0, 0, 0x00, 0xFF, 0x2F, 0x00])
        with pytest.raises(MalformedEvent):
            parse_midi(_smf(track))


_FUZZ_BASE = write_midi(random_canonical_piece(np.random.default_rng(21), max_notes=40))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_FUZZ_BASE) - 1), st.integers(0, 255)),
                min_size=1, max_size=4))
def test_mutated_bytes_raise_only_typed_errors(edits):
    data = bytearray(_FUZZ_BASE)
    for pos, value in edits:
        data[pos] = value
    try:
        parse_midi(bytes(data))
    except EmogenError:
        pass


class TestWrite:
    def test_empty_piece_is_valid_smf(self):
        piece = MidiPiece(ticks_per_beat=480, notes=())
        data = write_midi(piece)
        assert data[:4] == b"MThd"
        assert parse_midi(data) == piece

    def test_single_note_event_count(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 480, 64),))
        data = write_midi(piece)
        assert data.count(bytes([0x90, 60, 64])) == 1
        assert data.count(bytes([0x80, 60, 0])) == 1

    def test_round_trip_random_pieces(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            piece = random_canonical_piece(rng)
            assert parse_midi(write_midi(piece)) == piece

    def test_second_write_byte_identical(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            piece = random_canonical_piece(rng)
            first = write_midi(piece)
            assert write_midi(parse_midi(first)) == first


class TestPianoRoll:
    def test_empty_piece(self):
        roll = to_piano_roll(MidiPiece(480, ()), steps_per_beat=4)
        assert roll.grid.shape == (128, 0)

    def test_single_beat_note(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 480, 64),))
        roll = to_piano_roll(piece, steps_per_beat=4)
        assert roll.grid.shape == (128, 4)
        assert roll.grid[60].all()
        assert roll.onsets[60].tolist() == [True, False, False, False]
        assert roll.grid.sum() == 4 and roll.onsets.sum() == 1

    def test_chord_column_count(self):
        piece = MidiPiece(480, (NoteEvent(600, 60, 120, 64), NoteEvent(600, 64, 120, 64)))
        roll = to_piano_roll(piece, steps_per_beat=4)
        assert roll.grid[:, 5].sum() == 2

    def test_short_note_still_occupies_a_step(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 1, 64),))
        roll = to_piano_roll(piece, steps_per_beat=1)
        assert roll.grid[60].sum() == 1

    def test_rasterization_monotone_in_resolution(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            piece = random_canonical_piece(rng, max_notes=6)
            for note_index in range(len(piece.notes)):
                counts = []
                for steps in (1, 2, 4, 8):
                    single = MidiPiece(piece.ticks_per_beat,
                                       (piece.notes[note_index],))
                    counts.append(to_piano_roll(single, steps).grid.sum())
                assert counts == sorted(counts)

    def test_every_note_one_onset(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            piece = random_canonical_piece(rng, max_notes=6)
            roll = to_piano_roll(piece, 4)
            assert roll.onsets.sum() <= len(piece.notes)
            assert (roll.onsets & ~roll.grid).sum() == 0
