import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emogen.errors import EmogenError, TokenizerError
from emogen.midi_io import MidiPiece, NoteEvent
from emogen.tokenizer import (BOS, DEFAULT_VELOCITY, EOS, PAD, TokenSequence, Vocabulary,
                              decode, encode)

from conftest import random_canonical_piece

VOCAB = Vocabulary()
ONE_NOTE = MidiPiece(480, (NoteEvent(0, 60, 480, 80),))

# every raise site in the tokenizer; each is typed and still a ValueError
RAISE_SITES = {
    "bin_count": lambda: Vocabulary(time_shift_bins=0),
    "sequence_length": lambda: TokenSequence(ids=(BOS,) * 6, max_len=5),
    "non_integer_id": lambda: TokenSequence(ids=(1, 5.7, True), max_len=4),
    "decode_non_integer_id": lambda: decode([1, 5.5, 300, 2], VOCAB),
    "encode_max_len": lambda: encode(MidiPiece(480, ()), VOCAB, max_len=1),
    # each was accepted, or failed as a bare TypeError or ZeroDivisionError,
    # but for max_len=True, refused already as 1 < 2
    "bin_count_bool": lambda: Vocabulary(velocity_bins=True),
    "bin_count_float": lambda: Vocabulary(time_shift_bins=1.5),
    "bin_count_str": lambda: Vocabulary(velocity_bins="x"),
    "encode_max_len_bool": lambda: encode(MidiPiece(480, ()), VOCAB, max_len=True),
    "encode_max_len_float": lambda: encode(MidiPiece(480, ()), VOCAB, max_len=2.5),
    "encode_max_len_str": lambda: encode(MidiPiece(480, ()), VOCAB, max_len="x"),
    "decode_steps_per_beat_bool": lambda: decode([1, 40, 300], VOCAB, steps_per_beat=True),
    "decode_steps_per_beat_float": lambda: decode([1, 40, 300], VOCAB, steps_per_beat=1.5),
    "decode_steps_per_beat_str": lambda: decode([1, 40, 300], VOCAB, steps_per_beat="x"),
    "decode_steps_per_beat_zero": lambda: decode([1, 40, 300], VOCAB, steps_per_beat=0),
    # each failed as a bare TypeError or ZeroDivisionError, or was accepted
    "encode_steps_per_beat_str": lambda: encode(ONE_NOTE, VOCAB, steps_per_beat="x"),
    "encode_steps_per_beat_float": lambda: encode(ONE_NOTE, VOCAB, steps_per_beat=1.5),
    "encode_steps_per_beat_none": lambda: encode(ONE_NOTE, VOCAB, steps_per_beat=None),
    "encode_steps_per_beat_bool": lambda: encode(ONE_NOTE, VOCAB, steps_per_beat=True),
    "encode_steps_per_beat_zero": lambda: encode(ONE_NOTE, VOCAB, steps_per_beat=0),
    "encode_steps_per_beat_negative": lambda: encode(ONE_NOTE, VOCAB, steps_per_beat=-4),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_raise_sites_are_typed(site):
    with pytest.raises(TokenizerError) as info:
        RAISE_SITES[site]()
    assert isinstance(info.value, EmogenError) and isinstance(info.value, ValueError)


class TestVocabulary:
    def test_default_size(self):
        assert VOCAB.total_size == 3 + 128 + 128 + 100 + 32 == 391

    def test_configurable_size(self):
        # sized so the id space can match external token inventories
        assert Vocabulary(time_shift_bins=512, velocity_bins=206).total_size == 977

    def test_layout_anchors(self):
        assert (PAD, BOS, EOS) == (0, 1, 2)
        assert VOCAB.note_on_base == 3
        assert VOCAB.note_off_base == 131
        assert VOCAB.time_shift_base == 259
        assert VOCAB.velocity_base == 359

    def test_hash_depends_on_shape(self):
        assert VOCAB.vocab_hash != Vocabulary(velocity_bins=16).vocab_hash
        assert VOCAB.vocab_hash == Vocabulary().vocab_hash

    def test_velocity_bin_centers_round_trip(self):
        for vocab in (VOCAB, Vocabulary(velocity_bins=1), Vocabulary(velocity_bins=127)):
            for b in range(vocab.velocity_bins):
                center = vocab.bin_to_velocity(b)
                assert 1 <= center <= 127
                assert vocab.velocity_to_bin(center) == b

    def test_velocity_bins_cover_range(self):
        bins = [VOCAB.velocity_to_bin(v) for v in range(1, 128)]
        assert bins[0] == 0 and bins[-1] == VOCAB.velocity_bins - 1
        assert bins == sorted(bins)


class TestEncode:
    def test_empty_piece(self):
        seq = encode(MidiPiece(480, ()), VOCAB)
        assert seq.ids == (BOS, EOS)

    def test_single_note_hand_trace(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 480, 64),))
        seq = encode(piece, VOCAB, steps_per_beat=4)
        assert seq.ids == (
            BOS,
            VOCAB.velocity_base + 16,        # velocity 64 -> bin 16
            VOCAB.note_on_base + 60,
            VOCAB.time_shift_base + 4 - 1,   # one beat at 4 steps/beat
            VOCAB.note_off_base + 60,
            EOS,
        )

    def test_velocity_token_only_on_change(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 120, 64), NoteEvent(120, 64, 120, 64)))
        ids = encode(piece, VOCAB).ids
        assert sum(1 for i in ids if i >= VOCAB.velocity_base) == 1

    def test_long_gap_uses_greedy_shifts(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 480 * 60, 64),))  # 240 steps
        ids = encode(piece, VOCAB, max_len=512).ids
        shifts = [i - VOCAB.time_shift_base + 1 for i in ids
                  if VOCAB.time_shift_base <= i < VOCAB.velocity_base]
        assert shifts == [100, 100, 40]

    def test_truncation_keeps_eos(self):
        rng = np.random.default_rng(0)
        piece = random_canonical_piece(rng, max_notes=12)
        while not piece.notes:
            piece = random_canonical_piece(rng, max_notes=12)
        seq = encode(piece, VOCAB, max_len=5)
        assert len(seq) == 5 and seq.ids[0] == BOS and seq.ids[-1] == EOS

    def test_sequence_length_cap_enforced(self):
        with pytest.raises(ValueError):
            TokenSequence(ids=(BOS,) * 10, max_len=5)

    @pytest.mark.parametrize("bad_id", [5.7, 2.0, True, False, np.True_, np.float64(3), "3"])
    def test_non_integer_id_rejected(self, bad_id):
        with pytest.raises(TokenizerError, match="ids must be integers"):
            TokenSequence(ids=(1, bad_id, 2), max_len=4)
        with pytest.raises(TokenizerError, match="ids must be integers"):
            decode([1, bad_id, 2], VOCAB)

    def test_numpy_integer_ids_become_ints(self):
        seq = TokenSequence(ids=tuple(np.array([1, 60, 2])), max_len=4)
        assert seq.ids == (1, 60, 2) and all(type(i) is int for i in seq.ids)
        ids = np.array([BOS, VOCAB.note_on_base + 60, VOCAB.time_shift_base])
        notes = decode(ids, VOCAB).notes
        assert notes == (NoteEvent(0, 60, 120, DEFAULT_VELOCITY),)
        assert all(type(field) is int for field in notes[0])


class TestDecode:
    def test_inverse_on_grid_aligned_piece(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 480, 64), NoteEvent(480, 64, 240, 90)))
        out = decode(encode(piece, VOCAB), VOCAB)
        assert [(n.onset, n.pitch, n.duration) for n in out.notes] == \
            [(0, 60, 480), (480, 64, 240)]

    def test_velocity_decodes_to_bin_center(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 480, 64),))
        out = decode(encode(piece, VOCAB), VOCAB)
        assert out.notes[0].velocity == VOCAB.bin_to_velocity(VOCAB.velocity_to_bin(64))

    def test_unclosed_note_on_closed_at_end(self):
        ids = [BOS, VOCAB.note_on_base + 60, VOCAB.time_shift_base + 3 - 1, EOS]
        out = decode(ids, VOCAB)
        assert len(out.notes) == 1 and out.notes[0].duration == 3 * 120

    def test_orphan_note_off_ignored(self):
        ids = [BOS, VOCAB.note_off_base + 60, EOS]
        assert decode(ids, VOCAB).notes == ()

    def test_stops_at_eos(self):
        ids = [BOS, EOS, VOCAB.note_on_base + 60]
        assert decode(ids, VOCAB).notes == ()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=390), max_size=64))
    def test_total_over_arbitrary_ids(self, ids):
        piece = decode(ids, VOCAB)
        for note in piece.notes:
            assert note.duration >= 1 and 0 <= note.pitch < 128

    def test_encode_decode_encode_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            piece = random_canonical_piece(rng)
            seq = encode(piece, VOCAB)
            again = encode(decode(seq, VOCAB), VOCAB)
            assert again.ids == seq.ids

