from dataclasses import asdict

import numpy as np
import pytest

from emogen.errors import (BadFeatureFile, BadImage, CheckpointCorrupt,
                           ConfigError, PrefixTooLong, VocabMismatch)
from emogen.model import (IMAGE_FEATURE_DIM, EmoModel, ModelConfig,
                          TinyCnnExtractor, VaPredictor, load_checkpoint,
                          load_va_predictor, read_feature_file,
                          save_checkpoint, save_va_predictor, token_histogram,
                          write_feature_file)
from emogen.nn import Tensor, no_grad, softmax
from emogen.tokenizer import BOS, EOS, PAD, decode


def small_config(**overrides):
    base = dict(encoder_blocks=1, decoder_blocks=1, model_dim=16, head_count=2,
                ff_dim=24, max_len=32, time_shift_bins=8, velocity_bins=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def model():
    return EmoModel(small_config())


@pytest.fixture()
def feature(rng):
    return rng.normal(size=IMAGE_FEATURE_DIM)


class TestFeatureFiles:
    def test_round_trip(self, tmp_path, feature):
        path = tmp_path / "img.emf"
        write_feature_file(path, feature)
        loaded = read_feature_file(path)
        assert loaded == pytest.approx(feature, abs=1e-6)  # float32 storage

    def test_wrong_length_rejected_on_write(self, tmp_path, rng):
        with pytest.raises(BadFeatureFile):
            write_feature_file(tmp_path / "x.emf", rng.normal(size=511))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.emf"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 100)
        with pytest.raises(BadFeatureFile):
            read_feature_file(path)

    def test_truncated_payload(self, tmp_path, feature):
        path = tmp_path / "x.emf"
        write_feature_file(path, feature)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(BadFeatureFile):
            read_feature_file(path)

    def test_non_finite_rejected(self, tmp_path, feature):
        feature[3] = np.inf
        with pytest.raises(BadFeatureFile):
            write_feature_file(tmp_path / "x.emf", feature)

    def test_interrupted_write_keeps_previous_file(self, tmp_path, feature, monkeypatch):
        path = tmp_path / "img.emf"
        write_feature_file(path, feature)
        before = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr("emogen._files.os.replace", interrupted)
        with pytest.raises(OSError):
            write_feature_file(path, feature * 2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["img.emf"]


class TestConfig:
    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"model_dim": 16, "n_layers": 3})

    def test_bad_extractor_name(self):
        with pytest.raises(ConfigError):
            small_config(image_extractor="resnet")

    def test_indivisible_heads(self):
        with pytest.raises(ConfigError, match="not divisible by 2 heads"):
            small_config(model_dim=15, head_count=2)

    def test_default_vocab_size(self):
        assert ModelConfig().vocabulary().total_size == 391


class TestExtractor:
    def test_tiny_cnn_shape_and_determinism(self):
        rng = np.random.default_rng(0)
        image = rng.random((3, 8, 8))
        a = TinyCnnExtractor(np.random.default_rng(1))(Tensor(image)).data
        b = TinyCnnExtractor(np.random.default_rng(1))(Tensor(image)).data
        assert a.shape == (IMAGE_FEATURE_DIM,)
        assert np.array_equal(a, b)

    def test_precomputed_rejects_raw_image(self, model, rng):
        with pytest.raises(BadImage):
            model.image_feature(rng.random((3, 8, 8)))

    def test_feature_vector_passthrough(self, feature):
        model = EmoModel(small_config(dtype="float64"))
        assert np.array_equal(model.image_feature(feature).data, feature)

    def test_emf_path_source(self, model, tmp_path, feature):
        path = tmp_path / "img.emf"
        write_feature_file(path, feature)
        assert model.image_feature(path).data == pytest.approx(feature, abs=1e-6)


class TestEncoder:
    def test_context_shape(self, model):
        ctx = model.encode_midi(np.array([BOS, 5, 7, EOS]))
        assert ctx.shape == (16,)

    def test_pad_suffix_does_not_change_context(self, model):
        ids = np.array([BOS, 5, 7, EOS])
        padded = np.concatenate([ids, [PAD] * 6])
        a = model.encode_midi(ids).data
        b = model.encode_midi(padded).data
        assert b == pytest.approx(a, abs=1e-12)

    def test_rejects_out_of_vocab_ids(self, model):
        with pytest.raises(VocabMismatch):
            model.encode_midi(np.array([BOS, model.vocab.total_size]))

    def test_rejects_too_long(self, model):
        with pytest.raises(PrefixTooLong):
            model.encode_midi(np.full(33, BOS))

    def test_merge_length(self, model, feature):
        joint = model.merge(model.image_feature(feature),
                            model.encode_midi(np.array([BOS, EOS])))
        assert joint.shape == (32,)


class TestDecoder:
    def test_logit_shape_and_distribution(self, model, feature):
        logits = model.forward_logits(feature, np.array([BOS, 5, EOS]),
                                      np.array([BOS, 5]))
        assert logits.shape == (2, model.vocab.total_size)
        probs = softmax(logits, axis=-1).data
        assert probs.sum(axis=-1) == pytest.approx(np.ones(2))

    def test_causal(self, model, feature):
        joint = model.merge(model.image_feature(feature),
                            model.encode_midi(np.array([BOS, EOS])))
        prefix = np.array([BOS, 5, 7, 9])
        base = model.decode_logits(joint, prefix).data
        pert = model.decode_logits(joint, np.array([BOS, 5, 7, 200])).data
        assert pert[:3] == pytest.approx(base[:3], abs=1e-12)
        assert not np.allclose(pert[3], base[3])

    def test_empty_prefix_rejected(self, model, feature):
        joint = model.merge(model.image_feature(feature),
                            model.encode_midi(np.array([BOS])))
        with pytest.raises(PrefixTooLong):
            model.decode_logits(joint, np.array([], dtype=np.int64))

    def test_dense_decoder_variant(self, feature):
        model = EmoModel(small_config(decoder_blocks=0))
        assert model.dense_decoder is not None and model.decoder_stack == []
        logits = model.forward_logits(feature, np.array([BOS, EOS]), np.array([BOS]))
        assert logits.shape == (1, model.vocab.total_size)


class TestGenerate:
    def test_greedy_deterministic(self, model, feature):
        a = model.generate(feature, max_len=12)
        b = model.generate(feature, max_len=12)
        assert a.ids == b.ids
        assert a.ids[0] == BOS and len(a.ids) <= 12

    def test_temperature_seeded(self, model, feature):
        a = model.generate(feature, max_len=12, strategy="temperature",
                           temperature=1.5, seed=9)
        b = model.generate(feature, max_len=12, strategy="temperature",
                           temperature=1.5, seed=9)
        c = model.generate(feature, max_len=12, strategy="temperature",
                           temperature=1.5, seed=10)
        assert a.ids == b.ids
        assert a.ids != c.ids or len(a.ids) <= 3

    def test_output_decodes(self, model, feature):
        seq = model.generate(feature, max_len=16)
        piece = decode(seq, model.vocab, model.config.steps_per_beat)
        for note in piece.notes:
            assert 0 <= note.pitch < 128

    def test_unknown_strategy(self, model, feature):
        with pytest.raises(ConfigError):
            model.generate(feature, strategy="beam")

    def test_bad_temperature(self, model, feature):
        for temperature in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigError):
                model.generate(feature, strategy="temperature", temperature=temperature)

    def test_bad_max_len(self, model, feature):
        for max_len in (0, -3):
            with pytest.raises(ConfigError):
                model.generate(feature, max_len=max_len)


def reference_generate(model, feature, max_len, strategy="greedy",
                       temperature=1.0, seed=0):
    """Decoding loop that projects every row with full `decode_logits`."""
    rng = np.random.default_rng(seed)
    ids = [BOS]
    with no_grad():
        feat = model.image_feature(feature)
        while len(ids) < max_len:
            joint = model.merge(feat, model.encode_midi(np.array(ids)))
            logits = model.decode_logits(joint, np.array(ids)).data[-1]
            if strategy == "greedy":
                next_id = int(np.argmax(logits))
            else:
                probs = softmax(Tensor(logits * (1.0 / temperature))).data
                next_id = int(rng.choice(len(probs), p=probs / probs.sum()))
            ids.append(next_id)
            if next_id == EOS:
                break
    return tuple(ids)


class TestLastRowDecoding:
    @pytest.mark.parametrize("decoder_blocks", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 17, 32])
    def test_last_row_matches_full_decode(self, decoder_blocks, n, feature):
        model = EmoModel(small_config(decoder_blocks=decoder_blocks, dtype="float64"))
        ids = np.random.default_rng(n).integers(0, model.vocab.total_size, size=n)
        with no_grad():
            joint = model.merge(model.image_feature(feature), model.encode_midi(ids))
            full = model.decode_logits(joint, ids).data
            last = model.decode_logits(joint, ids, last_only=True).data
        assert full.shape == (n, model.vocab.total_size)
        assert last.shape == (1, model.vocab.total_size)
        # one row takes another BLAS path, so the last bits may differ
        assert np.abs(last[0] - full[-1]).max() <= 1e-12 * np.abs(full[-1]).max()

    @pytest.mark.parametrize("decoder_blocks", [0, 1, 3])
    def test_generate_matches_full_decode_loop(self, decoder_blocks, feature):
        model = EmoModel(small_config(decoder_blocks=decoder_blocks))
        assert model.generate(feature, max_len=32).ids == \
            reference_generate(model, feature, 32)
        sampled = model.generate(feature, max_len=32, strategy="temperature",
                                 temperature=1.3, seed=4)
        assert sampled.ids == reference_generate(model, feature, 32, "temperature",
                                                 temperature=1.3, seed=4)


class TestVaPredictor:
    def test_histogram_normalized(self):
        hist = token_histogram([1, 1, 2, 5], 8)
        assert hist.sum() == pytest.approx(1.0)
        assert hist[1] == 0.5

    def test_empty_histogram(self):
        assert token_histogram([], 8).sum() == 0.0

    def test_prediction_clamped(self):
        predictor = VaPredictor(16, 8, np.random.default_rng(0))
        predictor.fc3.bias.data[:] = [100.0, -100.0]
        point = predictor.predict_va([1, 2, 3])
        assert point.valence == 9.0 and point.arousal == 1.0

    def test_permutation_invariant(self):
        predictor = VaPredictor(16, 8, np.random.default_rng(1))
        a = predictor.predict_va([1, 2, 3, 3, 7])
        b = predictor.predict_va([7, 3, 1, 3, 2])
        assert (a.valence, a.arousal) == (b.valence, b.arousal)

    def test_save_load_round_trip(self, tmp_path):
        predictor = VaPredictor(16, 8, np.random.default_rng(2))
        predictor.bn1.running_mean += 0.25  # non-default running stats
        path = tmp_path / "va.emc"
        save_va_predictor(path, predictor, vocab_hash="abcd")
        loaded = load_va_predictor(path, vocab_hash="abcd")
        a = predictor.predict_va([1, 4, 4])
        b = loaded.predict_va([1, 4, 4])
        assert (a.valence, a.arousal) == (b.valence, b.arousal)

    def test_load_rejects_wrong_hash(self, tmp_path):
        predictor = VaPredictor(16, 8, np.random.default_rng(3))
        path = tmp_path / "va.emc"
        save_va_predictor(path, predictor, vocab_hash="abcd")
        with pytest.raises(VocabMismatch):
            load_va_predictor(path, vocab_hash="beef")


class TestCheckpoints:
    def test_model_round_trip(self, tmp_path, feature):
        model = EmoModel(small_config(seed=5))
        for _, param in model.parameters():
            param.data += np.random.default_rng(6).normal(size=param.shape) * 0.01
        path = tmp_path / "model.emc"
        model.save(path, extra={"note": "test"})
        loaded = EmoModel.load(path)
        assert loaded.config == model.config
        for (na, pa), (nb, pb) in zip(model.parameters(), loaded.parameters()):
            assert na == nb and pb.data.dtype == pa.data.dtype == np.float32
            assert np.array_equal(pa.data, pb.data)
        assert loaded.generate(feature, max_len=10).ids == \
            model.generate(feature, max_len=10).ids

    def test_truncated_checkpoint(self, tmp_path):
        model = EmoModel(small_config())
        path = tmp_path / "model.emc"
        model.save(path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointCorrupt):
            EmoModel.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.emc"
        path.write_bytes(b"JUNKJUNK" + b"\x00" * 64)
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_wrong_kind(self, tmp_path):
        predictor = VaPredictor(16, 8, np.random.default_rng(0))
        path = tmp_path / "va.emc"
        save_va_predictor(path, predictor, vocab_hash="x")
        with pytest.raises(CheckpointCorrupt):
            EmoModel.load(path)

    def test_missing_model_config(self, tmp_path):
        model = EmoModel(small_config())
        path = tmp_path / "model.emc"
        save_checkpoint(path, {"kind": "emomodel", "vocab_hash": model.vocab.vocab_hash},
                        model.parameters())
        with pytest.raises(CheckpointCorrupt):
            EmoModel.load(path)

    def test_mistyped_model_config(self, tmp_path):
        model = EmoModel(small_config())
        path = tmp_path / "model.emc"
        save_checkpoint(path, {"kind": "emomodel", "config": {"model_dim": "x"},
                               "vocab_hash": model.vocab.vocab_hash}, model.parameters())
        with pytest.raises(CheckpointCorrupt):
            EmoModel.load(path)

    @pytest.mark.parametrize("drop, replace", [
        ("vocab_size", {}), ("hidden", {}), ("extra", {}),
        (None, {"hidden": "8"}), (None, {"vocab_size": True}),
        (None, {"extra": {"running": {"bn1_mean": [0.0]}}}),
    ])
    def test_bad_va_predictor_metadata(self, tmp_path, drop, replace):
        predictor = VaPredictor(16, 8, np.random.default_rng(0))
        meta = {"kind": "va_predictor", "vocab_hash": "x", "vocab_size": 16,
                "hidden": 8, "extra": predictor.state_extra()}
        meta.pop(drop, None)
        meta.update(replace)
        path = tmp_path / "va.emc"
        save_checkpoint(path, meta, predictor.parameters())
        with pytest.raises(CheckpointCorrupt):
            load_va_predictor(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])  # 1e39 overflows float32
    def test_non_finite_block_rejected(self, tmp_path, value):
        model = EmoModel(small_config())
        wide = {name: Tensor(p.data.astype(np.float64)) for name, p in model.parameters()}
        wide["out_proj.bias"].data[0] = value
        path = tmp_path / "model.emc"
        save_checkpoint(path, {"kind": "emomodel", "config": asdict(model.config),
                               "vocab_hash": model.vocab.vocab_hash}, wide.items())
        with pytest.raises(CheckpointCorrupt, match="out_proj.bias"):
            EmoModel.load(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        model = EmoModel(small_config())
        path = tmp_path / "model.emc"
        model.save(path)
        before = path.read_bytes()

        def failing_params():
            yield model.parameters()[0]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            save_checkpoint(path, {"kind": "emomodel"}, failing_params())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.emc"]

    def test_meta_survives(self, tmp_path):
        from emogen.nn import Parameter
        path = tmp_path / "c.emc"
        save_checkpoint(path, {"kind": "test", "foo": [1, 2]},
                        [("w", Parameter(np.arange(6.0).reshape(2, 3)))])
        meta, blocks = load_checkpoint(path)
        assert meta["foo"] == [1, 2] and meta["format_version"] == 1
        assert np.array_equal(blocks["w"], np.arange(6.0).reshape(2, 3))
