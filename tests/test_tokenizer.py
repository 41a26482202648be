import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emogen.errors import CatalogError, EmogenError, TokenizerError, VocabMismatch
from emogen.midi_io import MidiPiece, NoteEvent
from emogen.tokenizer import (BOS, EOS, PAD, TokenSequence, Vocabulary,
                              decode, encode, load_token_dataset,
                              save_token_dataset)

from conftest import random_canonical_piece

VOCAB = Vocabulary()

# every raise site in the tokenizer; each is typed and still a ValueError
RAISE_SITES = {
    "bin_count": lambda: Vocabulary(time_shift_bins=0),
    "time_shift": lambda: VOCAB.token_to_id(("TIME_SHIFT", 101)),
    "velocity_bin": lambda: VOCAB.token_to_id(("VELOCITY", 32)),
    # without a range check these land on NOTE_OFF 0, EOS and TIME_SHIFT 1
    "note_on_above_127": lambda: VOCAB.token_to_id(("NOTE_ON", 128)),
    "note_on_below_0": lambda: VOCAB.token_to_id(("NOTE_ON", -1)),
    "note_off_above_127": lambda: VOCAB.token_to_id(("NOTE_OFF", 128)),
    "unknown_token": lambda: VOCAB.token_to_id(("CHORD", 60)),
    "id_range": lambda: VOCAB.id_to_token(391),
    "sequence_length": lambda: TokenSequence(ids=(BOS,) * 6, max_len=5),
    "encode_max_len": lambda: encode(MidiPiece(480, ()), VOCAB, max_len=1),
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

    def test_id_token_round_trip_all_ids(self):
        for idx in range(VOCAB.total_size):
            assert VOCAB.token_to_id(VOCAB.id_to_token(idx)) == idx

    def test_layout_anchors(self):
        assert VOCAB.token_to_id(("PAD",)) == PAD == 0
        assert VOCAB.token_to_id(("NOTE_ON", 0)) == 3
        assert VOCAB.token_to_id(("NOTE_OFF", 0)) == 131
        assert VOCAB.token_to_id(("TIME_SHIFT", 1)) == 259
        assert VOCAB.token_to_id(("VELOCITY", 0)) == 359

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
            VOCAB.token_to_id(("VELOCITY", 16)),   # velocity 64 -> bin 16
            VOCAB.token_to_id(("NOTE_ON", 60)),
            VOCAB.token_to_id(("TIME_SHIFT", 4)),  # one beat at 4 steps/beat
            VOCAB.token_to_id(("NOTE_OFF", 60)),
            EOS,
        )

    def test_velocity_token_only_on_change(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 120, 64), NoteEvent(120, 64, 120, 64)))
        tokens = [VOCAB.id_to_token(i) for i in encode(piece, VOCAB).ids]
        assert sum(1 for t in tokens if t[0] == "VELOCITY") == 1

    def test_long_gap_uses_greedy_shifts(self):
        piece = MidiPiece(480, (NoteEvent(0, 60, 480 * 60, 64),))  # 240 steps
        tokens = [VOCAB.id_to_token(i) for i in encode(piece, VOCAB, max_len=512).ids]
        shifts = [t[1] for t in tokens if t[0] == "TIME_SHIFT"]
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
        ids = [BOS, VOCAB.token_to_id(("NOTE_ON", 60)),
               VOCAB.token_to_id(("TIME_SHIFT", 3)), EOS]
        out = decode(ids, VOCAB)
        assert len(out.notes) == 1 and out.notes[0].duration == 3 * 120

    def test_orphan_note_off_ignored(self):
        ids = [BOS, VOCAB.token_to_id(("NOTE_OFF", 60)), EOS]
        assert decode(ids, VOCAB).notes == ()

    def test_stops_at_eos(self):
        ids = [BOS, EOS, VOCAB.token_to_id(("NOTE_ON", 60))]
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


class TestDataset:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        records = [("a", [1, 2]), ("b", [1, 5, 300, 2])]
        save_token_dataset(path, records, VOCAB)
        assert [(i, ids) for i, ids in load_token_dataset(path, VOCAB)] == records

    @pytest.mark.parametrize("line", ["not json", '{"ids": [1, 2]}', '{"id": "a"}',
                                      '[1, 2]', '{"id": "a", "ids": ["x"]}'])
    def test_malformed_record_reports_line(self, tmp_path, line):
        path = tmp_path / "tokens.jsonl"
        save_token_dataset(path, [("a", [1, 2])], VOCAB)
        with open(path, "a") as fh:
            fh.write(line + "\n")
        with pytest.raises(CatalogError, match="tokens.jsonl:2"):
            list(load_token_dataset(path, VOCAB))

    def test_non_utf8_record_reports_line(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        save_token_dataset(path, [("a", [1, 2])], VOCAB)
        with open(path, "ab") as fh:
            fh.write(b'{"id": "\xff", "ids": [1, 2]}\n')
        with pytest.raises(CatalogError, match="tokens.jsonl:2"):
            list(load_token_dataset(path, VOCAB))

    def test_interrupted_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        save_token_dataset(path, [("a", [1, 2])], VOCAB)
        before = path.read_bytes()

        def records():
            yield "b", [1, 5, 2]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            save_token_dataset(path, records(), VOCAB)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["tokens.jsonl"]

    def test_vocab_mismatch(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        save_token_dataset(path, [("a", [1, 2])], VOCAB)
        with pytest.raises(VocabMismatch):
            list(load_token_dataset(path, Vocabulary(velocity_bins=8)))
