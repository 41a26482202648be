import hashlib
import json
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from emogen.errors import (BadFeatureFile, CheckpointCorrupt, ConfigError, NonFiniteError,
                           PrefixTooLong, VocabMismatch)
from emogen.model import (IMAGE_FEATURE_DIM, DecoderCache, EmoModel, ModelConfig,
                          VaPredictor, load_checkpoint,
                          load_va_predictor, read_feature_file,
                          save_checkpoint, save_va_predictor, token_histogram,
                          write_feature_file)
from emogen.nn import (Tensor, attend_heads, attention, linear, no_grad, relu, softmax,
                       split_heads)
from emogen.nn.layers import MASK_VALUE, causal_mask
from emogen.tokenizer import BOS, EOS, PAD, decode
from emogen.training import TrainConfig, TrainSample, cce_loss, fit

from test_readers_fuzz import (OVERFLOW_CHECKPOINT, OVERFLOW_CHECKPOINT_V2, TwoBlocks,
                               checkpoint_bytes, read_two_blocks, ref_save_checkpoint_v1)


def small_config(**overrides):
    base = dict(encoder_blocks=1, decoder_blocks=1, model_dim=16, head_count=2,
                ff_dim=24, max_len=32, time_shift_bins=8, velocity_bins=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def random_vectors(model, seed):
    """`model` with every 1-D parameter (bias, gamma, beta) drawn at random:
    a fresh model's are 0 and 1, which hide a bias added in the wrong place."""
    rng = np.random.default_rng(seed)
    for _, param in model.parameters():
        if param.data.ndim == 1:
            param.data[...] = rng.normal(size=param.data.shape)
    return model


def cached_logits(model, memory, ids, cache):
    """Logits of `ids` after those already in `cache`, as `generate` steps."""
    return model._decode_step(memory.data.reshape(1, -1), np.asarray(ids), cache)


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

    def test_unsupported_version(self, tmp_path, feature):
        path = tmp_path / "x.emf"
        write_feature_file(path, feature)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 2)  # the version follows the 8-byte magic
        path.write_bytes(bytes(data))
        with pytest.raises(BadFeatureFile, match="unsupported version 2$"):
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

    def test_indivisible_heads(self):
        with pytest.raises(ConfigError, match="not divisible by 2 heads"):
            small_config(model_dim=15, head_count=2)

    def test_default_vocab_size(self):
        assert ModelConfig().vocabulary().total_size == 391


class TestExtractor:
    # arrays that are not one 512-d vector: raw images, a column, a split
    # vector (which a flattening reshape would take), and nothing at all
    RAW_ARRAYS = [(3, 8, 8), (3, 30, 30), (3, 0, 8), (32, 32), (1, 3, 32, 32), (512, 1),
                  (2, 256), (0,)]

    @pytest.mark.parametrize("shape", RAW_ARRAYS, ids=str)
    def test_malformed_raw_image_is_typed(self, model, rng, shape):
        with pytest.raises(BadFeatureFile, match=rf"got shape {re.escape(str(shape))}$"):
            model.image_feature(rng.random(shape))

    # sequences that np.asarray cannot make a float vector of
    NOT_NUMBERS = {"ragged": [[1.0, 2.0], [3.0]], "strings": ["a"] * 512,
                   "objects": [object()] * 512}

    @pytest.mark.parametrize("case", list(NOT_NUMBERS))
    def test_values_that_are_not_numbers_are_typed(self, model, tmp_path, case):
        with pytest.raises(BadFeatureFile, match="^image feature is not a vector of numbers"):
            model.image_feature(self.NOT_NUMBERS[case])
        with pytest.raises(BadFeatureFile, match="^image feature is not a vector of numbers"):
            write_feature_file(tmp_path / "x.emf", self.NOT_NUMBERS[case])
        assert list(tmp_path.iterdir()) == []

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

    def test_rejects_out_of_vocab_ids(self, model):
        with pytest.raises(VocabMismatch):
            model.encode_midi(np.array([BOS, model.vocab.total_size]))

    def test_rejects_too_long(self, model):
        with pytest.raises(PrefixTooLong):
            model.encode_midi(np.full(33, BOS))

    def test_memory_row_shape(self, model, feature):
        assert model.memory(feature, model.encode_midi(np.array([BOS, EOS]))).shape == (16,)
        assert model.memory(feature).shape == (16,)


class TestDecoder:
    def test_logit_shape_and_distribution(self, model, feature):
        logits = model.decode_logits(model.memory(feature), np.array([BOS, 5]))
        assert logits.shape == (2, model.vocab.total_size)
        probs = softmax(logits).data
        assert probs.sum(axis=-1) == pytest.approx(np.ones(2))

    def test_causal(self, model, feature):
        memory = model.memory(feature, model.encode_midi(np.array([BOS, EOS])))
        prefix = np.array([BOS, 5, 7, 9])
        base = model.decode_logits(memory, prefix).data
        pert = model.decode_logits(memory, np.array([BOS, 5, 7, 200])).data
        assert pert[:3] == pytest.approx(base[:3], abs=1e-12)
        assert not np.allclose(pert[3], base[3])

    def test_empty_prefix_rejected(self, model, feature):
        with pytest.raises(PrefixTooLong):
            model.decode_logits(model.memory(feature), np.array([], dtype=np.int64))

    def test_prefix_past_max_len_rejected(self, model, feature):
        limit = model.config.max_len
        with no_grad():
            memory = model.memory(feature)
            with pytest.raises(PrefixTooLong, match=f"prefix of {limit + 1} exceeds"):
                model.decode_logits(memory, np.full(limit + 1, BOS))

    def test_dense_decoder_variant(self, feature):
        model = EmoModel(small_config(decoder_blocks=0))
        assert model.dense_decoder is not None and model.decoder_stack == []
        logits = model.decode_logits(model.memory(feature), np.array([BOS]))
        assert logits.shape == (1, model.vocab.total_size)


# ids that are not a flat sequence of integers: each was truncated, decoded
# as ints or failed with a bare ValueError before it was checked
NOT_INTEGER_IDS = {"float": [1, 2.7], "float_array": np.array([1.0, 1.9]), "nan": [1, np.nan],
                   "string": [1, "3"], "bool": [True, False], "nested": [[1, 3], [2, 4]],
                   "ragged": [[1, 3], [2]]}
ID_SITES = {
    "token_histogram": lambda model, memory, ids: token_histogram(ids, 5),
    "predict_va": lambda model, memory, ids:
        VaPredictor(5, 4, np.random.default_rng(0)).predict_va(ids),
    "decode_logits": lambda model, memory, ids: model.decode_logits(memory, ids),
}


@pytest.mark.parametrize("site", sorted(ID_SITES))
@pytest.mark.parametrize("case", sorted(NOT_INTEGER_IDS))
def test_ids_that_are_not_integers_are_vocab_mismatch(model, feature, site, case):
    with pytest.raises(VocabMismatch, match="flat sequence of integers"):
        ID_SITES[site](model, model.memory(feature), NOT_INTEGER_IDS[case])


@pytest.mark.parametrize("site", ["decode_logits"])
def test_decoded_id_beyond_int64_is_vocab_mismatch(model, feature, site):
    with pytest.raises(VocabMismatch):
        ID_SITES[site](model, model.memory(feature), [BOS, 2 ** 70])


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
        # 1e-300: float32 logits times its inverse overflow, and their softmax is NaN;
        # "x" and 10**400 failed as a bare TypeError and OverflowError, and True and
        # inf (uniform sampling) were taken
        for temperature in (0.0, -1.0, float("nan"), 1e-300, "x", True, float("inf"), 10**400):
            with pytest.raises(ConfigError):
                model.generate(feature, strategy="temperature", temperature=temperature)

    def test_bad_max_len(self, model, feature):
        for max_len in (0, -3, 2.5, True):  # a bool is not an int
            with pytest.raises(ConfigError):
                model.generate(feature, max_len=max_len)

    def test_bad_seed(self, model, feature):
        for seed in (-1, 1.5, True):
            with pytest.raises(ConfigError, match="seed must be an int >= 0"):
                model.generate(feature, seed=seed)


def reference_generate(model, feature, max_len, strategy="greedy",
                       temperature=1.0, seed=0):
    """Decoding loop that recomputes the memory row and projects every row
    with full `decode_logits` at every step, without a cache."""
    rng = np.random.default_rng(seed)
    ids = [BOS]
    with no_grad():
        while len(ids) < max_len:
            logits = model.decode_logits(model.memory(feature), np.array(ids)).data[-1]
            if strategy == "greedy":
                next_id = int(np.argmax(logits))
            else:
                probs = softmax(Tensor(logits * (1.0 / temperature))).data
                next_id = int(rng.choice(len(probs), p=probs / probs.sum()))
            ids.append(next_id)
            if next_id == EOS:
                break
    return tuple(ids)


# (n, decoder_blocks, dtype); the float64 cases keep their ids from before
# the dtype parameter
LAST_ROW_CASES = [pytest.param(n, blocks, dtype, id=f"{n}-{blocks}" + suffix)
                  for n in (1, 2, 17, 32) for blocks in (0, 1, 3)
                  for dtype, suffix in (("float64", ""), ("float32", "-float32"))]


class TestLastRowDecoding:
    """A cache's first call may hold a whole prefix: it returns a row per id,
    exactly as decoding without a cache does."""

    @pytest.mark.parametrize("n, decoder_blocks, dtype", LAST_ROW_CASES)
    def test_last_row_matches_full_decode(self, decoder_blocks, n, dtype, feature):
        model = random_vectors(EmoModel(small_config(decoder_blocks=decoder_blocks,
                                                     dtype=dtype)), n)
        ids = np.random.default_rng(n).integers(0, model.vocab.total_size, size=n)
        with no_grad():
            memory = model.memory(feature)
            full = model.decode_logits(memory, ids).data
            cached = cached_logits(model, memory, ids, DecoderCache(model))
        assert cached.shape == full.shape == (n, model.vocab.total_size)
        assert cached.dtype == np.dtype(dtype)
        assert np.array_equal(cached, full)

    @pytest.mark.parametrize("decoder_blocks", [0, 1, 3])
    def test_cached_decode_builds_no_graph(self, decoder_blocks, feature, monkeypatch):
        """With grad enabled and a `memory` that requires grad, cached logits
        are a plain array and no graph node is made on the way."""
        model = random_vectors(EmoModel(small_config(decoder_blocks=decoder_blocks)), 1)
        memory = model.memory(feature)
        assert memory.requires_grad
        nodes = []
        make_node = Tensor._result
        monkeypatch.setattr(Tensor, "_result",
                            staticmethod(lambda *args: nodes.append(args) or make_node(*args)))
        cache = DecoderCache(model)
        for ids in ([BOS, 5, 7], [9], [11]):
            logits = cached_logits(model, memory, ids, cache)
            assert type(logits) is np.ndarray
            assert logits.shape == (len(ids), model.vocab.total_size)
        assert nodes == []


# the default config, 2+2 blocks and a dense decoder
FIXED_MODELS = {"default": {}, "two_two": dict(encoder_blocks=2, decoder_blocks=2,
                                               model_dim=32, head_count=4, ff_dim=48,
                                               max_len=64),
                "dense": dict(decoder_blocks=0, model_dim=32, head_count=4, ff_dim=48,
                              max_len=64)}


def _fixed_model(name, dtype):
    model = random_vectors(EmoModel(ModelConfig(seed=3, dtype=dtype, **FIXED_MODELS[name])), 4)
    model.out_proj.bias.data[EOS] = -1e4  # no early stop: every step is compared
    return model


class TestFixedContext:
    """The cached decoder against full `decode_logits` re-runs of the whole prefix."""

    @pytest.mark.parametrize("dtype, bound", [("float64", 1e-12), ("float32", 1e-5)])
    @pytest.mark.parametrize("name", list(FIXED_MODELS))
    def test_cached_logits_match_full_decode(self, name, dtype, bound, feature):
        model = _fixed_model(name, dtype)
        ids = [BOS]
        with no_grad():
            memory = model.memory(feature)
            cache = DecoderCache(model)
            for step in range(40):
                cached = cached_logits(model, memory, ids[-1:], cache)
                full = model.decode_logits(memory, np.array(ids)).data
                assert cached.shape == (1, model.vocab.total_size)
                assert cached.dtype == np.dtype(dtype)
                err = np.linalg.norm(cached[0] - full[-1]) / np.linalg.norm(full[-1])
                assert err <= bound, (step, err)
                ids.append(int(np.argmax(full[-1])))

    @pytest.mark.parametrize("name", list(FIXED_MODELS))
    def test_generate_matches_uncached_loop(self, name, feature):
        model = _fixed_model(name, "float64")
        assert model.generate(feature, max_len=40).ids == reference_generate(model, feature, 40)
        sampled = model.generate(feature, max_len=40, strategy="temperature",
                                 temperature=1.3, seed=4)
        assert sampled.ids == reference_generate(model, feature, 40, "temperature",
                                                 temperature=1.3, seed=4)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", list(FIXED_MODELS))
    def test_generate_agrees_with_cached_decode_logits(self, name, dtype, feature):
        """Replayed one id at a time through the cached step, each step's row
        picks the id `generate` chose."""
        model = _fixed_model(name, dtype)
        ids = model.generate(feature).ids
        assert len(ids) == model.config.max_len  # EOS is suppressed: a full piece
        with no_grad():
            memory, cache = model.memory(feature), DecoderCache(model)
            for step, (newest, chosen) in enumerate(zip(ids[:-1], ids[1:])):
                row = cached_logits(model, memory, [newest], cache)
                assert row.shape == (1, model.vocab.total_size)
                assert int(row[0].argmax()) == chosen, step

    def test_new_cache_sees_weights_edited_in_place(self, feature):
        """The fused query/key/value weight belongs to a cache, not to the
        model: after an in-place edit, as Adam makes, a new cache decodes
        with the new weights."""
        model = _fixed_model("two_two", "float64")
        ids = np.array([BOS, 5, 9, 13])
        with no_grad():
            memory = model.memory(feature)
            before = cached_logits(model, memory, ids, DecoderCache(model))
            model.decoder_stack[0].attn.wk.weight.data *= 1.5
            cached = cached_logits(model, memory, ids, DecoderCache(model))
            full = model.decode_logits(memory, ids).data
        assert not np.array_equal(before, full)
        assert np.array_equal(cached, full)

    def test_encoder_runs_once_per_piece_on_one_row(self, feature, monkeypatch):
        model = EmoModel(small_config())
        seen = []
        encode = EmoModel.encode_midi
        monkeypatch.setattr(EmoModel, "encode_midi",
                            lambda self, ids: seen.append(len(ids)) or encode(self, ids))
        model.out_proj.bias.data[EOS] = -1e4
        model.generate(feature)
        ids = np.array([BOS, 5, 140, 270, EOS])
        model.decode_logits(model.memory(feature), ids[:-1])
        assert seen == [1, 1]

    def test_bad_context_rejected(self):
        """The context is no longer a setting: any `context` key is unknown."""
        for context in ("fixed", "prefix", "full"):
            with pytest.raises(ConfigError, match="context"):
                ModelConfig.from_dict({"context": context})

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("context", [None, "prefix", "fixed"],
                             ids=["no_key", "prefix", "fixed"])
    def test_checkpoint_with_any_context_loads(self, tmp_path, feature, dtype, context):
        """Older checkpoints record `context` or lack it; either way the model
        loads as one that encodes [BOS]."""
        model = EmoModel(small_config(dtype=dtype, seed=7))
        model.save(tmp_path / "new.emc")
        config = load_checkpoint(tmp_path / "new.emc",
                                 lambda meta: EmoModel(model.config))[0]["config"]
        assert "context" not in config
        if context is not None:
            config["context"] = context
        ref_save_checkpoint_v1(tmp_path / "old.emc",
                               {"kind": "emomodel", "config": config,
                                "vocab_hash": model.vocab.vocab_hash}, model.parameters())
        loaded = EmoModel.load(tmp_path / "old.emc")
        assert loaded.config == model.config
        ids = np.array([BOS, 5, 140, 270, EOS])
        assert np.array_equal(loaded.decode_logits(loaded.memory(feature), ids[:-1]).data,
                              model.decode_logits(model.memory(feature), ids[:-1]).data)
        assert loaded.generate(feature, max_len=12).ids == model.generate(feature, max_len=12).ids


class TestDecoderCacheViews:
    """Each block state's head-major views are `split_heads` views of its key
    and value storage, laid out as `attention` hands its rows to
    `attend_heads`; its biases, gammas and betas are (1, n) views of the
    parameters."""

    @staticmethod
    def _filled_cache(dtype):
        model = EmoModel(small_config(decoder_blocks=2, head_count=4, dtype=dtype))
        cache = DecoderCache(model)
        rng = np.random.default_rng(8)
        for state in cache.blocks:
            state.keys[...] = rng.normal(size=state.keys.shape)
            state.values[...] = rng.normal(size=state.values.shape)
        return model, cache, rng

    def test_views_alias_the_storage(self):
        model, cache, rng = self._filled_cache("float64")
        heads, d = model.config.head_count, model.config.model_dim
        for state in cache.blocks:
            key, value = rng.normal(size=(2, d))
            state.keys[5], state.values[5] = key, value
            assert np.array_equal(state.key_heads[:, :, 5], key.reshape(heads, -1))
            assert np.array_equal(state.value_heads[:, 5], value.reshape(heads, -1))

    @pytest.mark.parametrize("decoder_blocks", [0, 2])
    def test_rows_are_views_of_the_parameters(self, decoder_blocks):
        model = EmoModel(small_config(decoder_blocks=decoder_blocks, dtype="float32"))
        cache = DecoderCache(model)
        pairs = [(cache.out_bias, model.out_proj.bias)]
        ffns = [(cache.dense, model.dense_decoder)] if cache.dense else []
        for block, state in zip(model.decoder_stack, cache.blocks):
            pairs += [(state.wo_bias, block.attn.wo.bias),
                      (state.norm1[0], block.norm1.gamma), (state.norm1[1], block.norm1.beta),
                      (state.norm2[0], block.norm2.gamma), (state.norm2[1], block.norm2.beta)]
            ffns.append((state.ffn, block.ffn))
        for (w1, b1, w2, b2), ffn in ffns:
            assert w1 is ffn.fc1.weight.data and w2 is ffn.fc2.weight.data
            pairs += [(b1, ffn.fc1.bias), (b2, ffn.fc2.bias)]
        assert len(pairs) == 1 + 7 * decoder_blocks + 2 * (decoder_blocks == 0)
        for row, param in pairs:
            assert row.shape == (1, param.data.size)
            assert row.dtype == param.data.dtype == np.float32
            assert np.shares_memory(row, param.data)
        for block, state in zip(model.decoder_stack, cache.blocks):
            attn = block.attn
            assert np.array_equal(state.qkv_bias[0], np.concatenate(
                [attn.wq.bias.data, np.zeros_like(attn.wv.bias.data), attn.wv.bias.data]))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("rows", [1, 2, None], ids=["one", "two_masked", "max_len_plus_1"])
    def test_core_over_views_matches_attend(self, dtype, rows):
        """`attend_heads` over sliced views gives the bytes of `attention`'s
        forward on the same rows as (T, d) arrays, and its weights over
        `split_heads` views of those rows, which have the same strides."""
        model, cache, rng = self._filled_cache(dtype)
        heads, d = model.config.head_count, model.config.model_dim
        rows = rows or model.config.max_len + 1
        tq = min(rows, 2)  # generation's first step decodes two rows, then one
        mask = causal_mask(tq, rows, dtype) if tq > 1 else None
        q = rng.normal(size=(tq, 3 * d)).astype(dtype)[:, :d]  # as a fused projection's slice
        qh = split_heads(q, heads)
        for state in cache.blocks:
            key_heads = state.key_heads[:, :, :rows]
            value_heads = state.value_heads[:, :rows]
            keys, values = state.keys[:rows], state.values[:rows]
            kt, vh = split_heads(keys, heads).transpose(0, 2, 1), split_heads(values, heads)
            assert (key_heads.strides, value_heads.strides) == (kt.strides, vh.strides)
            with no_grad():
                want = attention(Tensor(q), Tensor(keys), Tensor(values), heads, mask).data
            weights = attend_heads(qh, kt, vh, mask)[1]
            out, got_weights = attend_heads(qh, key_heads, value_heads, mask)
            assert out.dtype == want.dtype == np.dtype(dtype)
            assert out.tobytes() == want.tobytes()
            assert got_weights.tobytes() == weights.tobytes()


class TestVaPredictor:
    def test_histogram_normalized(self):
        hist = token_histogram([1, 1, 2, 5], 8)
        assert hist.sum() == pytest.approx(1.0)
        assert hist[1] == 0.5

    def test_empty_histogram(self):
        assert token_histogram([], 8).sum() == 0.0

    @pytest.mark.parametrize("ids", [[-1, 2], [7], [0, 5], np.array([4, -3]), [2 ** 63]],
                             ids=["negative", "past_end", "vocab_size", "array", "beyond_int64"])
    def test_histogram_rejects_ids_outside_vocabulary(self, ids):
        with pytest.raises(VocabMismatch):
            token_histogram(ids, 5)
        with pytest.raises(VocabMismatch):
            VaPredictor(5, 4, np.random.default_rng(0)).predict_va(ids)

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


def _model_file(tmp_path, blocks=None, **meta):
    """A small model's checkpoint with `blocks` and `meta` keys replaced."""
    model = EmoModel(small_config())
    params = dict(model.parameters())
    params.update(blocks or {})
    save_checkpoint(tmp_path / "model.emc",
                    {"kind": "emomodel", "config": asdict(model.config),
                     "vocab_hash": model.vocab.vocab_hash, **meta}, params.items())
    return tmp_path / "model.emc"


def _bad_json(tmp_path):
    path = tmp_path / "model.emc"
    path.write_bytes(checkpoint_bytes(b"{oops", (1,)))
    return path


def _format_version(tmp_path, label: bytes):
    """A small model's checkpoint whose metadata says `"format_version": <label>`."""
    path = _model_file(tmp_path)
    raw = path.read_bytes()
    (meta_len,) = struct.unpack("<I", raw[8:12])  # after the 8-byte magic
    meta = raw[12:12 + meta_len].replace(b'"format_version": 3', b'"format_version": ' + label)
    path.write_bytes(raw[:8] + struct.pack("<I", len(meta)) + meta + raw[12 + meta_len:])
    return path


# case -> (load a bad checkpoint written under a directory, error, message)
BAD_CHECKPOINTS = {
    "vocab_hash": (lambda tmp: EmoModel.load(_model_file(tmp, vocab_hash="0" * 16)),
                   VocabMismatch, "vocabulary hash mismatch"),
    "model_as_va_predictor": (lambda tmp: load_va_predictor(_model_file(tmp), "x"),
                              CheckpointCorrupt, "not a VA-predictor checkpoint"),
    "block_shape": (lambda tmp: EmoModel.load(_model_file(
        tmp, blocks={"out_proj.bias": Tensor(np.zeros(3))})),
        CheckpointCorrupt, r"block out_proj.bias has shape \(3,\)"),
    "directory": (lambda tmp: EmoModel.load(tmp), CheckpointCorrupt, "Is a directory"),
    "format_version_4": (lambda tmp: EmoModel.load(_format_version(tmp, b"4")),
                         CheckpointCorrupt, "unsupported format version"),
    # a version is an int: 2.0 and true equal 2 and 1 but are not versions
    "format_version_2.0": (lambda tmp: EmoModel.load(_format_version(tmp, b"2.0")),
                           CheckpointCorrupt, "model.emc: unsupported format version$"),
    "format_version_true": (lambda tmp: EmoModel.load(_format_version(tmp, b"true")),
                            CheckpointCorrupt, "model.emc: unsupported format version$"),
    "format_version_string_3": (lambda tmp: EmoModel.load(_format_version(tmp, b'"3"')),
                                CheckpointCorrupt, "model.emc: unsupported format version$"),
    "metadata_not_json": (lambda tmp: EmoModel.load(_bad_json(tmp)),
                          CheckpointCorrupt, "model.emc: Expecting property name"),
}


# running statistics that eval-mode batch norm cannot use
BAD_RUNNING = [("bn1_mean", np.nan), ("bn2_var", np.inf), ("bn1_var", -1.0)]


def _running_with(key, value):
    """A hidden-8 predictor's running statistics, `value` in one row of `key`."""
    running = {"bn1_mean": [0.0] * 8, "bn1_var": [1.0] * 8,
               "bn2_mean": [0.0] * 8, "bn2_var": [1.0] * 8}
    running[key][3] = value
    return {"running": running}


# --- reference: the VA predictor with batch norm, which older predictor files hold ---

def ref_batch_norm_predictor(blocks, running, histograms):
    """The batch-norm predictor's eval-mode forward, verbatim: `VaPredictor`
    with `train=False` and `nn.BatchNorm`'s eval branch, on named blocks."""
    def batch_norm(x, name):
        running_mean = np.array(running[f"{name}_mean"], np.float64)
        running_var = np.array(running[f"{name}_var"], np.float64)
        normed = (x - running_mean) * (1.0 / np.sqrt(running_var + 1e-5))
        return normed * blocks[f"{name}.gamma"] + blocks[f"{name}.beta"]

    def fc(x, name):
        return linear(x, blocks[f"{name}.weight"], blocks[f"{name}.bias"])

    x = relu(batch_norm(fc(histograms, "fc1"), "bn1"))
    x = relu(batch_norm(fc(x, "fc2"), "bn2"))
    return fc(x, "fc3")


def legacy_predictor(vocab_size, hidden, seed=0):
    """The blocks of a batch-norm predictor, in its parameter order, and its
    running statistics, none at its initial value; one variance is 0."""
    rng = np.random.default_rng(seed)
    fresh = dict(VaPredictor(vocab_size, hidden, rng).parameters())
    blocks, running = {}, {}
    for layer in ("fc1", "bn1", "fc2", "bn2", "fc3"):
        if layer.startswith("fc"):
            blocks[f"{layer}.weight"] = fresh[f"{layer}.weight"]
            blocks[f"{layer}.bias"] = Tensor(rng.normal(0.0, 0.1, fresh[f"{layer}.bias"].shape))
            continue
        blocks[f"{layer}.gamma"] = Tensor(rng.uniform(0.5, 2.0, hidden)
                                          * rng.choice([-1.0, 1.0], hidden))
        blocks[f"{layer}.beta"] = Tensor(rng.normal(0.0, 0.1, hidden))
        running[f"{layer}_mean"] = rng.normal(0.0, 0.05, hidden).tolist()
        running[f"{layer}_var"] = rng.uniform(1e-4, 1e-2, hidden).tolist()
    running["bn2_var"][0] = 0.0
    return blocks, running


def legacy_meta(vocab_size, hidden, running):
    return {"kind": "va_predictor", "vocab_hash": "x", "vocab_size": vocab_size,
            "hidden": hidden, "extra": {"running": running}}


class TestBatchNormPredictorFiles:
    @pytest.mark.parametrize("vocab_size, hidden", [(16, 8), (391, 64)])
    def test_fold_matches_batch_norm_forward(self, tmp_path, vocab_size, hidden):
        blocks, running = legacy_predictor(vocab_size, hidden, seed=hidden)
        path = tmp_path / "va.emc"
        ref_save_checkpoint_v1(path, legacy_meta(vocab_size, hidden, running), blocks.items())
        loaded = load_va_predictor(path, "x")
        rng = np.random.default_rng(1)
        histograms = np.stack([token_histogram(rng.integers(0, vocab_size, size=n), vocab_size)
                               for n in (0, 1, 5, 40, 300)])
        ours = loaded(Tensor(histograms)).data
        theirs = ref_batch_norm_predictor(blocks, running, Tensor(histograms)).data
        assert ours.dtype == theirs.dtype == np.float64
        assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12)
        # the folded predictor is an ordinary one: it saves and loads as one
        assert [name for name, _ in loaded.parameters()] == \
            [f"fc{i}.{kind}" for i in (1, 2, 3) for kind in ("weight", "bias")]
        save_va_predictor(tmp_path / "new.emc", loaded, vocab_hash="x")
        again = load_va_predictor(tmp_path / "new.emc", "x")
        assert again(Tensor(histograms)).data.tobytes() == ours.tobytes()

    def test_stray_batch_norm_blocks(self, tmp_path):
        """Without `extra.running` a file is read as the current layout."""
        blocks, _ = legacy_predictor(16, 8)
        blocks = {name: block for name, block in blocks.items() if not name.startswith("bn2")}
        path = tmp_path / "va.emc"
        ref_save_checkpoint_v1(path, dict(legacy_meta(16, 8, None), extra={}), blocks.items())
        with pytest.raises(CheckpointCorrupt, match="unexpected block bn1"):
            load_va_predictor(path, "x")

    @pytest.mark.parametrize("name, shape", [("bn1.gamma", (1,)), ("bn2.beta", (1,)),
                                             ("fc1.bias", (1,)), ("fc1.weight", (16, 1))])
    def test_block_of_the_wrong_shape(self, tmp_path, name, shape):
        """Each would broadcast in the fold; the file is refused instead."""
        blocks, running = legacy_predictor(16, 8)
        blocks[name] = Tensor(np.ones(shape))
        path = tmp_path / "va.emc"
        ref_save_checkpoint_v1(path, legacy_meta(16, 8, running), blocks.items())
        with pytest.raises(CheckpointCorrupt, match=rf"block {name} is not \(.*\) finite values"):
            load_va_predictor(path, "x")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_norm_block_not_finite(self, tmp_path, value):
        blocks, running = legacy_predictor(16, 8)
        blocks["bn2.gamma"].data[2] = 1234.5
        path = tmp_path / "va.emc"
        ref_save_checkpoint_v1(path, legacy_meta(16, 8, running), blocks.items())
        # the writer refuses NaN and inf, so the value goes into the written bytes
        raw = path.read_bytes()
        assert raw.count(struct.pack("<d", 1234.5)) == 1
        path.write_bytes(raw.replace(struct.pack("<d", 1234.5), struct.pack("<d", value)))
        with pytest.raises(CheckpointCorrupt, match=r"block bn2.gamma is not \(8,\) finite"):
            load_va_predictor(path, "x")

    def test_running_statistics_without_norm_blocks(self, tmp_path):
        _, running = legacy_predictor(16, 8)
        path = tmp_path / "va.emc"
        ref_save_checkpoint_v1(path, legacy_meta(16, 8, running),
                               VaPredictor(16, 8, np.random.default_rng(0)).parameters())
        with pytest.raises(CheckpointCorrupt, match="do not match the architecture"):
            load_va_predictor(path, "x")


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
            read_two_blocks(path)

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
        (None, {"extra": {"running": {"bn1_mean": [0.0] * 7, "bn1_var": [1.0] * 8,
                                      "bn2_mean": [0.0] * 8, "bn2_var": [1.0] * 8}}}),
        *[(None, {"extra": _running_with(key, value)}) for key, value in BAD_RUNNING],
        (None, {"hidden": 1.5}), (None, {"vocab_size": 0}),  # refused already, untested
    ])
    def test_bad_va_predictor_metadata(self, tmp_path, drop, replace):
        """On a batch-norm predictor's file; without `extra.running` its
        `bn1.*`/`bn2.*` blocks are unexpected."""
        blocks, _ = legacy_predictor(16, 8)
        meta = legacy_meta(16, 8, _running_with("bn1_mean", 0.0)["running"])  # a fresh predictor's
        meta.pop(drop, None)
        meta.update(replace)
        path = tmp_path / "va.emc"
        ref_save_checkpoint_v1(path, meta, blocks.items())
        with pytest.raises(CheckpointCorrupt):
            load_va_predictor(path, "x")

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])  # 1e39 overflows float32
    def test_non_finite_block_rejected(self, tmp_path, value):
        model = EmoModel(small_config())
        wide = {name: Tensor(p.data.astype(np.float64)) for name, p in model.parameters()}
        marker = struct.pack("<d", 1234.5)
        wide["out_proj.bias"].data[0] = 1234.5
        path = tmp_path / "model.emc"
        save_checkpoint(path, {"kind": "emomodel", "config": asdict(model.config),
                               "vocab_hash": model.vocab.vocab_hash}, wide.items())
        # the writer refuses NaN and inf, so the value goes into the written bytes
        raw = path.read_bytes()
        assert raw.count(marker) == 1
        path.write_bytes(raw.replace(marker, struct.pack("<d", value)))
        with pytest.raises(CheckpointCorrupt, match="out_proj.bias"):
            EmoModel.load(path)

    @pytest.mark.parametrize("case", list(BAD_CHECKPOINTS))
    def test_bad_checkpoint_is_typed(self, tmp_path, case):
        load, error, message = BAD_CHECKPOINTS[case]
        with pytest.raises(error, match=message):
            load(tmp_path)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind, block", [("model", "decoder_stack.0.ffn.fc1.weight"),
                                             ("va_predictor", "fc2.bias")])
    def test_non_finite_block_keeps_previous_checkpoint(self, tmp_path, kind, block, value):
        if kind == "model":
            module = EmoModel(small_config())
            save = module.save
        else:
            module = VaPredictor(16, 8, np.random.default_rng(0))
            save = lambda path: save_va_predictor(path, module, vocab_hash="abcd")  # noqa: E731
        path = tmp_path / "checkpoint.emc"
        save(path)
        before = path.read_bytes()
        dict(module.parameters())[block].data.flat[3] = value
        with pytest.raises(NonFiniteError, match=rf"block {block} holds NaN or inf"):
            save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.emc"]

    def test_meta_survives(self, tmp_path):
        path = tmp_path / "c.emc"
        saved = TwoBlocks()
        saved.w.data = np.arange(6.0).reshape(2, 3)
        save_checkpoint(path, {"kind": "test", "foo": [1, 2]}, saved.parameters())
        meta, loaded = read_two_blocks(path)
        assert meta["foo"] == [1, 2] and meta["format_version"] == 3
        assert loaded.w.data.dtype == np.float32
        assert np.array_equal(loaded.w.data, np.arange(6.0).reshape(2, 3))

    def test_repeated_block_is_corrupt(self, tmp_path):
        """A second block of one name would overwrite the first."""
        model = EmoModel(small_config())
        path = tmp_path / "model.emc"
        sevens = Tensor(np.full(model.embedding.weight.shape, 7.0))
        save_checkpoint(path, {"kind": "emomodel", "config": asdict(model.config),
                               "vocab_hash": model.vocab.vocab_hash},
                        [*model.parameters(), ("embedding.weight", sevens)])
        with pytest.raises(CheckpointCorrupt, match="repeated block embedding.weight"):
            EmoModel.load(path)

    def test_bytes_after_the_last_block_are_corrupt(self, tmp_path):
        model = EmoModel(small_config())
        path = tmp_path / "model.emc"
        model.save(path)
        path.write_bytes(path.read_bytes() + bytes(400))
        with pytest.raises(CheckpointCorrupt, match="400 bytes after the last block"):
            EmoModel.load(path)

    def test_unknown_block_is_corrupt(self, tmp_path):
        model = EmoModel(small_config())
        path = tmp_path / "model.emc"
        save_checkpoint(path, {"kind": "emomodel", "config": asdict(model.config),
                               "vocab_hash": model.vocab.vocab_hash},
                        [*model.parameters(), ("extra.weight", Tensor(np.ones(3)))])
        with pytest.raises(CheckpointCorrupt, match="unexpected block extra.weight"):
            EmoModel.load(path)

    def test_block_shape_beyond_int64_is_corrupt(self, tmp_path):
        path = tmp_path / "model.emc"
        for raw in (OVERFLOW_CHECKPOINT, OVERFLOW_CHECKPOINT_V2):
            path.write_bytes(raw)
            with pytest.raises(CheckpointCorrupt, match="truncated block w"):
                read_two_blocks(path)


FIXTURES = Path(__file__).parent / "fixtures"

# Files that the version-1 writer wrote, each with every parameter drawn from
# a normal distribution: `EmoModel.save` of `ModelConfig(encoder_blocks=1,
# decoder_blocks=1, model_dim=4, head_count=2, ff_dim=4, max_len=8,
# time_shift_bins=1, velocity_bins=1, seed=11, dtype=...)`, and
# `save_va_predictor` of a `VaPredictor(16, 8)` with vocabulary hash "abcd".
# Each maps to the `parameter_digest` of what that code's loaders read from it.
V1_FIXTURES = {
    "v1_float32.emc": "4ef31b109389b5d3a7dd5b0055ed4c25326d2abc74b3f3df72a24ef306fb4567",
    "v1_float64.emc": "e4c7737a8cd1ab733bf489f25dba2b1e1581624488ad71f18b38db3e6b14d0ba",
    "v1_va_predictor.emc": "9f1f7a35b5bb61cde5644123e386e177ad3f5a71d71085f33a79feefae3abe9f",
}


# `v2_float32.emc`, written by the version-2 writer: `EmoModel.save` of the
# configuration of `v1_float32.emc` (its config also says `image_extractor`
# "precomputed" and `image_size` 32), every parameter drawn anew from a
# normal distribution, and the `parameter_digest` that code's loader read.
V2_FIXTURE_DIGEST = "fabf9dc4532cb78a5811ad029490349011643a2b3788f76557ca5e45dc6ba3a4"


def parameter_digest(module) -> str:
    """sha256 of each parameter's name, dtype and bytes, in `parameters()` order."""
    digest = hashlib.sha256()
    for name, param in module.parameters():
        digest.update(name.encode() + str(param.data.dtype).encode() + param.data.tobytes())
    return digest.hexdigest()


def _load_fixture(path):
    return load_va_predictor(path, "abcd") if "va_predictor" in path.name else EmoModel.load(path)


class TestFormatVersions:
    """Versions 2 and 3 store each block in its parameter's dtype, version 1
    every block as `<f8`; files of versions 1 and 2 load as the code that
    wrote them loaded them."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("name", list(FIXED_MODELS))
    def test_model_round_trip_is_byte_identical(self, tmp_path, name, dtype):
        model = _fixed_model(name, dtype)
        model.save(tmp_path / "model.emc")
        assert parameter_digest(EmoModel.load(tmp_path / "model.emc")) == parameter_digest(model)

    def test_predictor_round_trip_is_byte_identical(self, tmp_path):
        predictor = random_vectors(VaPredictor(16, 8, np.random.default_rng(3)), 5)
        save_va_predictor(tmp_path / "va.emc", predictor, vocab_hash="abcd")
        loaded = load_va_predictor(tmp_path / "va.emc", "abcd")
        assert parameter_digest(loaded) == parameter_digest(predictor)

    def test_mixed_dtypes_round_trip(self, tmp_path):
        def mixed():
            module = TwoBlocks()
            module.b.data = np.zeros(2)  # float64 beside the float32 `w`
            return module

        saved = mixed()
        saved.w.data[...] = np.arange(6.0).reshape(2, 3) / 3
        saved.b.data[...] = [1 / 3, -2.5]
        save_checkpoint(tmp_path / "c.emc", {"kind": "test"}, saved.parameters())
        raw = (tmp_path / "c.emc").read_bytes()
        assert raw.count(saved.w.data.astype("<f4").tobytes()) == 1
        assert raw.count(saved.b.data.astype("<f8").tobytes()) == 1
        loaded = load_checkpoint(tmp_path / "c.emc", lambda meta: mixed())[1]
        assert parameter_digest(loaded) == parameter_digest(saved)

    def test_file_size(self, tmp_path):
        """Half the bytes for float32; one value-size byte more per block for float64."""
        EmoModel(ModelConfig()).save(tmp_path / "narrow.emc")
        assert (tmp_path / "narrow.emc").stat().st_size < 4_000_000
        wide = EmoModel(ModelConfig(dtype="float64"))
        wide.save(tmp_path / "v2.emc")
        ref_save_checkpoint_v1(tmp_path / "v1.emc",
                               {"kind": "emomodel", "config": asdict(wide.config),
                                "vocab_hash": wide.vocab.vocab_hash, "extra": {}},
                               wide.parameters())
        grown = (tmp_path / "v2.emc").stat().st_size - (tmp_path / "v1.emc").stat().st_size
        assert grown == len(wide.parameters())

    @pytest.mark.parametrize("itemsize", [0, 2, 3, 16, 255])
    def test_value_size_other_than_4_or_8_is_corrupt(self, tmp_path, itemsize):
        path = tmp_path / "c.emc"
        path.write_bytes(checkpoint_bytes(b'{"format_version": 2}', (2, 3), itemsize))
        with pytest.raises(CheckpointCorrupt, match=f"block w has {itemsize}-byte values"):
            read_two_blocks(path)

    def test_version_1_blocks_read_as_version_2_are_corrupt(self, tmp_path):
        path = tmp_path / "c.emc"
        ref_save_checkpoint_v1(path, {"kind": "test"}, TwoBlocks().parameters())
        path.write_bytes(path.read_bytes().replace(b'"format_version": 1',
                                                   b'"format_version": 2'))
        with pytest.raises(CheckpointCorrupt, match="block w has 2-byte values"):
            read_two_blocks(path)

    @pytest.mark.parametrize("name", list(V1_FIXTURES))
    def test_version_1_fixture_loads_as_before(self, tmp_path, name):
        """And saved again, as version 3, it loads to the same bytes."""
        loaded = _load_fixture(FIXTURES / name)
        assert parameter_digest(loaded) == V1_FIXTURES[name]
        if isinstance(loaded, EmoModel):
            loaded.save(tmp_path / name)
        else:
            save_va_predictor(tmp_path / name, loaded, vocab_hash="abcd")
        assert b'"format_version": 3' in (tmp_path / name).read_bytes()
        assert parameter_digest(_load_fixture(tmp_path / name)) == V1_FIXTURES[name]

    def test_version_2_fixture_loads_as_before(self, tmp_path):
        """Its config loses `image_extractor` and `image_size`, its blocks load
        unchanged, and saved again, as version 3, it loads to the same bytes."""
        loaded = EmoModel.load(FIXTURES / "v2_float32.emc")
        assert parameter_digest(loaded) == V2_FIXTURE_DIGEST
        loaded.save(tmp_path / "model.emc")
        raw = (tmp_path / "model.emc").read_bytes()
        assert b'"format_version": 3' in raw and b"image_" not in raw
        assert parameter_digest(EmoModel.load(tmp_path / "model.emc")) == V2_FIXTURE_DIGEST

    @pytest.mark.parametrize("version", [1, 2])
    def test_tiny_cnn_checkpoint_is_corrupt(self, tmp_path, version):
        """A model that decoded images with the tiny CNN keeps its config keys,
        which the config parser no longer knows."""
        config = dict(asdict(small_config()), image_extractor="tiny-cnn", image_size=32)
        meta = {"kind": "emomodel", "config": config, "format_version": version,
                "vocab_hash": small_config().vocabulary().vocab_hash}
        path = tmp_path / "model.emc"
        path.write_bytes(checkpoint_bytes(json.dumps(meta).encode(), (16, 3, 9),
                                          4 if version == 2 else None))
        with pytest.raises(CheckpointCorrupt, match=r"unknown keys in model: "
                                                    r"\['image_extractor', 'image_size'\]"):
            EmoModel.load(path)


def _with_key_biases(model, rng):
    """`model`'s blocks plus a random `*.attn.wk.bias` block per attention
    layer, as checkpoints from before the key projection lost its bias hold."""
    blocks = {name: Tensor(p.data.astype(np.float64)) for name, p in model.parameters()}
    for name in [n for n in blocks if n.endswith(".attn.wk.weight")]:
        blocks[name.replace(".weight", ".bias")] = Tensor(rng.normal(size=model.config.model_dim))
    return blocks


def _gradient_norms(model, feature):
    ids = np.array([BOS, 5, 140, 270, 9, 144, EOS, PAD])
    logits = model.decode_logits(model.memory(feature), ids[:-1])
    cce_loss(logits, ids[1:], pad_mask=ids[1:] != PAD).backward()
    return {name: np.linalg.norm(p.grad) if p.grad is not None else 0.0
            for name, p in model.parameters()}


def _check_key_bias_checkpoint_loads(tmp_path, feature, dtype):
    model = EmoModel(small_config(decoder_blocks=2, dtype=dtype))
    path = tmp_path / "old.emc"
    ref_save_checkpoint_v1(path, {"kind": "emomodel", "config": asdict(model.config),
                                  "vocab_hash": model.vocab.vocab_hash},
                           _with_key_biases(model, np.random.default_rng(22)).items())
    loaded = EmoModel.load(path)
    assert [name for name, _ in loaded.parameters()] == [name for name, _ in model.parameters()]
    ids = np.array([BOS, 5, 140, 270, EOS])
    assert np.array_equal(loaded.decode_logits(loaded.memory(feature), ids[:-1]).data,
                          model.decode_logits(model.memory(feature), ids[:-1]).data)


ENCODER_QUERY_KEY = {"encoder_stack.0.attn.wq.weight", "encoder_stack.0.attn.wq.bias",
                     "encoder_stack.0.attn.wk.weight"}


class TestKeyBias:
    def test_fixed_context_zeroes_only_the_encoder_query_and_key(self, feature):
        """The encoder attends over its one key, [BOS], with weight exactly 1."""
        model = EmoModel(small_config(decoder_blocks=2, dtype="float64"))
        norms = _gradient_norms(model, feature)
        floor = 1e-8 * np.median(list(norms.values()))
        assert {name for name, norm in norms.items() if norm <= floor} == ENCODER_QUERY_KEY
        assert all(norms[name] == 0.0 for name in ENCODER_QUERY_KEY)

    def test_fixed_context_encoder_query_and_key_keep_their_initial_values(self):
        model = EmoModel(small_config())
        before = {name: p.data.copy() for name, p in model.parameters()}
        rng = np.random.default_rng(24)
        samples = [TrainSample(rng.normal(size=IMAGE_FEATURE_DIM), [BOS, 5, 140, 9, EOS])
                   for _ in range(2)]
        fit(model, samples, TrainConfig(lr=1e-3, epochs=2, batch_size=1, va_loss_mode="off"))
        unchanged = {name for name, p in model.parameters()
                     if np.array_equal(p.data, before[name])}
        assert unchanged == ENCODER_QUERY_KEY

    def test_a_key_bias_moves_attention_by_rounding_only(self):
        rng = np.random.default_rng(21)
        q, k, v = (Tensor(rng.normal(size=(5, 8))) for _ in range(3))
        key_bias = rng.normal(size=8)
        for mask in (None, np.triu(np.full((5, 5), MASK_VALUE), k=1)):
            np.testing.assert_allclose(attention(q, k + key_bias, v, 2, mask).data,
                                       attention(q, k, v, 2, mask).data, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_fixed_context_checkpoint_with_key_biases_loads(self, tmp_path, feature, dtype):
        _check_key_bias_checkpoint_loads(tmp_path, feature, dtype)

    @pytest.mark.parametrize("missing", ["encoder_stack.0.attn.wq.bias",
                                         "decoder_stack.1.attn.wk.weight", "out_proj.bias"])
    def test_checkpoint_missing_another_block_is_corrupt(self, tmp_path, missing):
        model = EmoModel(small_config(decoder_blocks=2))
        blocks = _with_key_biases(model, np.random.default_rng(23))
        del blocks[missing]
        path = tmp_path / "old.emc"
        ref_save_checkpoint_v1(path, {"kind": "emomodel", "config": asdict(model.config),
                                      "vocab_hash": model.vocab.vocab_hash}, blocks.items())
        with pytest.raises(CheckpointCorrupt, match="do not match"):
            EmoModel.load(path)
