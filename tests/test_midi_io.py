import copy
import functools
import pickle
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emogen import midi_io
from emogen.errors import (EmogenError, MalformedEvent, MalformedHeader, MalformedPiece,
                           RollTooLong, TruncatedTrack, UnsupportedFormat)
from emogen.midi_io import (MidiPiece, NoteEvent, decode_vlq, encode_vlq, note_spans,
                            parse_midi, to_piano_roll, write_midi)
from emogen.tokenizer import Vocabulary, decode, encode

from conftest import random_canonical_piece


# every field check of a note: its fields and the message it raises
BAD_NOTES = {
    "pitch_above_127": ((0, 128, 1, 64), "pitch 128 outside 0..127"),
    "pitch_below_0": ((0, -1, 1, 64), "pitch -1 outside 0..127"),
    "negative_onset": ((-1, 60, 1, 64), "negative onset -1"),
    "zero_duration": ((0, 60, 0, 64), "duration 0 < 1"),
    "zero_velocity": ((0, 60, 1, 0), "velocity 0 outside 1..127"),
    "velocity_above_127": ((0, 60, 1, 128), "velocity 128 outside 1..127"),
}

# every field check of a note or piece, and a VLQ (a delta time) outside
# what four bytes hold; each is typed and still a ValueError
PIECE_RAISE_SITES = {
    **{site: functools.partial(NoteEvent, *fields) for site, (fields, _) in BAD_NOTES.items()},
    "ticks_per_beat": lambda: MidiPiece(0, ()),
    "ticks_per_beat_smpte_bit": lambda: MidiPiece(0x8000, ()),
    "tempo": lambda: MidiPiece(480, (), tempo_us_per_beat=0),
    "tempo_above_three_bytes": lambda: MidiPiece(480, (), tempo_us_per_beat=1 << 24),
    "negative_vlq": lambda: encode_vlq(-1),
    "vlq_above_four_bytes": lambda: encode_vlq(1 << 28),
    "delta_above_four_bytes": lambda: write_midi(MidiPiece(480, (NoteEvent(1 << 28, 60, 1, 64),))),
}


@pytest.mark.parametrize("site", sorted(PIECE_RAISE_SITES))
def test_piece_raise_sites_are_typed(site):
    with pytest.raises(MalformedPiece) as info:
        PIECE_RAISE_SITES[site]()
    assert isinstance(info.value, EmogenError) and isinstance(info.value, ValueError)


def _smf(track_bytes: bytes, fmt: int = 0, division: int = 480) -> bytes:
    header = b"MThd" + struct.pack(">IHHH", 6, fmt, 1, division)
    return header + b"MTrk" + struct.pack(">I", len(track_bytes)) + track_bytes


class TestNoteEvent:
    @pytest.mark.parametrize("site", sorted(BAD_NOTES))
    def test_positional_and_keyword_construction_check_ranges(self, site):
        fields, message = BAD_NOTES[site]
        keywords = dict(zip(("onset", "pitch", "duration", "velocity"), fields))
        for build in (lambda: NoteEvent(*fields), lambda: NoteEvent(**keywords)):
            with pytest.raises(MalformedPiece) as info:
                build()
            assert str(info.value) == message

    def test_fields_and_end(self):
        note = NoteEvent(onset=480, pitch=60, duration=240, velocity=64)
        assert (note.onset, note.pitch, note.duration, note.velocity) == (480, 60, 240, 64)
        assert note.end == 720

    def test_notes_sort_in_field_order(self):
        notes = [NoteEvent(10, 60, 5, 64), NoteEvent(0, 72, 1, 1), NoteEvent(10, 60, 5, 9),
                 NoteEvent(10, 59, 50, 64), NoteEvent(10, 60, 2, 127)]
        assert sorted(notes) == sorted(notes, key=lambda n: (n.onset, n.pitch, n.duration,
                                                             n.velocity))
        assert sorted(notes)[0] == NoteEvent(0, 72, 1, 1)

    def test_pickle_and_copy_round_trip(self):
        note = NoteEvent(96, 61, 12, 100)
        for again in (pickle.loads(pickle.dumps(note)), copy.copy(note), copy.deepcopy(note)):
            assert again == note and type(again) is NoteEvent

    def test_readers_build_note_events(self):
        piece = parse_midi(write_midi(random_canonical_piece(np.random.default_rng(3))))
        vocab = Vocabulary()
        decoded = decode(encode(piece, vocab), vocab)
        assert piece.notes and decoded.notes
        assert {type(note) for note in piece.notes + decoded.notes} == {NoteEvent}

    def test_equals_the_plain_tuple_of_its_fields(self):
        # a note is a tuple, so it also equals (and hashes as) its bare fields
        note = NoteEvent(0, 60, 480, 64)
        assert note == (0, 60, 480, 64) and hash(note) == hash((0, 60, 480, 64))
        assert note != (0, 60, 480, 65)


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

    def test_events_without_notes_are_skipped(self):
        track = bytes([0x00, 0xF0, 0x02, 0x7E, 0xF7,  # sysex
                       0x00, 0xB0, 7, 100,  # controller: two data bytes
                       0x00, 0xC0, 5,  # program change: one data byte
                       0x00, 0x90, 60, 80, 0x60, 0x80, 60, 0, 0x00, 0xFF, 0x2F, 0x00])
        assert parse_midi(_smf(track)).notes == (NoteEvent(0, 60, 0x60, 80),)

    def test_zero_tempo_rejected(self):
        track = bytes([0x00, 0xFF, 0x51, 0x03, 0, 0, 0, 0x00, 0xFF, 0x2F, 0x00])
        with pytest.raises(MalformedEvent):
            parse_midi(_smf(track))

    # one file per reader branch that the fuzz tests reach only on some draws
    @pytest.mark.parametrize("data, error, message", [
        (_smf(bytes([0x81, 0x80, 0x80, 0x80, 0x00, 0xFF, 0x2F, 0x00])), TruncatedTrack,
         "variable-length quantity longer than 4 bytes"),
        (_smf(bytes([0x00, 0xFF])), TruncatedTrack, "truncated meta event"),
        (_smf(bytes([0x00, 0xFF, 0x01, 0x00, 0x81, 0x00])), TruncatedTrack,
         "track ended after a delta time"),
        (_smf(bytes([0x00, 0xA0, 60])), TruncatedTrack, "channel event truncated"),
        (_smf(bytes([0x00, 0xB0, 7])), TruncatedTrack, "channel event truncated"),
        (_smf(bytes([0x00, 0xE0])), TruncatedTrack, "channel event truncated"),
        (_smf(bytes([0x00, 0xC0])), TruncatedTrack, "channel event truncated"),
        (_smf(bytes([0x00, 0xD5])), TruncatedTrack, "channel event truncated"),
        (_smf(bytes([0x00, 0xFF, 0x2F, 0x00]), division=0), MalformedHeader,
         "zero ticks per beat"),
        (_smf(bytes([0x00, 0x40])), TruncatedTrack, "data byte with no running status"),
        (_smf(bytes([0x00, 0xFF, 0x01, 0x05, 0x41])), TruncatedTrack,
         "meta event payload truncated"),
        (_smf(bytes([0x00, 0xF0, 0x05, 0x01])), TruncatedTrack, "sysex payload truncated"),
        (_smf(bytes([0x00, 0xF1])), TruncatedTrack, "unexpected status byte 0xf1"),
        (_smf(bytes([0x00, 0xFF, 0x2F, 0x00]), fmt=3), MalformedHeader, "unknown SMF format 3"),
        (_smf(b"")[:14], TruncatedTrack, "expected an MTrk chunk"),
        (_smf(bytes([0x00, 0x90, 60, 64, 0x81])), TruncatedTrack,
         "byte stream ended inside a variable-length quantity"),
    ], ids=["vlq_over_4_bytes", "meta_without_type", "delta_time_at_end",
            "aftertouch_one_byte", "controller_one_byte", "pitch_bend_no_bytes",
            "program_no_byte", "channel_pressure_no_byte", "zero_ticks_per_beat",
            "data_byte_first", "meta_payload_short", "sysex_payload_short",
            "system_common_status", "format_3", "no_track_chunk", "delta_time_cut_at_end"])
    def test_reader_branch_errors(self, data, error, message):
        with pytest.raises(error) as info:
            parse_midi(data)
        assert type(info.value) is error and str(info.value) == message


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
    def test_largest_fields_round_trip(self):
        """The largest division, tempo and delta time an SMF holds."""
        piece = MidiPiece(0x7FFF, (NoteEvent((1 << 28) - 2, 60, 1, 64),),
                          tempo_us_per_beat=0xFFFFFF)
        data = write_midi(piece)
        assert parse_midi(data) == piece
        assert write_midi(parse_midi(data)) == data

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


# 37 bytes: one note held for a 0x0FFFFFFF-tick delta at one tick per beat,
# a roll of 1,073,741,820 steps at 4 steps per beat (128 GiB per grid)
LONG_ROLL_SMF = _smf(bytes([0x00, 0x90, 60, 64]) + encode_vlq(0x0FFFFFFF)
                     + bytes([0x80, 60, 0, 0x00, 0xFF, 0x2F, 0x00]), division=1)


class TestRollLimit:
    def test_long_roll_refused_before_allocating(self):
        assert len(LONG_ROLL_SMF) == 37
        piece = parse_midi(LONG_ROLL_SMF)
        assert note_spans(piece, 4) == [(0, 1_073_741_820, 60, 64)]
        tracemalloc.start()
        try:
            with pytest.raises(RollTooLong, match="1073741820 steps"):
                to_piano_roll(piece, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(midi_io, "MAX_ROLL_STEPS", 8)
        assert to_piano_roll(MidiPiece(480, (NoteEvent(0, 60, 960, 64),)), 4).num_steps == 8
        with pytest.raises(RollTooLong):
            to_piano_roll(MidiPiece(480, (NoteEvent(0, 60, 961, 64),)), 4)
