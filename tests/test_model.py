import struct
import sys
import types
import zlib
from dataclasses import asdict

import numpy as np
import pytest

from emogen.errors import (BadFeatureFile, BadImage, CheckpointCorrupt, ConfigError,
                           MissingArtifacts, NonFiniteError, PrefixTooLong, ShapeMismatch,
                           VocabMismatch)
from emogen.model import (IMAGE_FEATURE_DIM, DecoderCache, EmoModel, ModelConfig,
                          TinyCnnExtractor, VaPredictor, load_checkpoint, load_image,
                          load_va_predictor, read_feature_file,
                          save_checkpoint, save_va_predictor, token_histogram,
                          write_feature_file)
from emogen.nn import Tensor, attend, attend_heads, attention, linear, no_grad, relu, softmax
from emogen.nn.layers import MASK_VALUE, causal_mask
from emogen.tokenizer import BOS, EOS, PAD, decode
from emogen.training import TrainConfig, TrainSample, cce_loss, fit

from test_readers_fuzz import OVERFLOW_CHECKPOINT, TwoBlocks, checkpoint_bytes, read_two_blocks


def small_config(**overrides):
    base = dict(encoder_blocks=1, decoder_blocks=1, model_dim=16, head_count=2,
                ff_dim=24, max_len=32, time_shift_bins=8, velocity_bins=4, seed=0)
    base.update(overrides)
    return ModelConfig(**base)


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

    # array shape -> the typed error the tiny CNN's `image_feature` raises
    CNN_SHAPE_ERRORS = {(32, 32): BadImage, (1, 3, 32, 32): BadImage, (3, 0, 8): BadImage,
                        (3, 30, 30): ShapeMismatch}  # 15 rows after one pooling: odd

    @pytest.mark.parametrize("shape", list(CNN_SHAPE_ERRORS), ids=str)
    def test_malformed_raw_image_is_typed(self, rng, shape):
        model = EmoModel(small_config(image_extractor="tiny-cnn"))
        with pytest.raises(self.CNN_SHAPE_ERRORS[shape]):
            model.image_feature(rng.random(shape))

    def test_feature_vector_passthrough(self, feature):
        model = EmoModel(small_config(dtype="float64"))
        assert np.array_equal(model.image_feature(feature).data, feature)

    def test_emf_path_source(self, model, tmp_path, feature):
        path = tmp_path / "img.emf"
        write_feature_file(path, feature)
        assert model.image_feature(path).data == pytest.approx(feature, abs=1e-6)


def _png(pixels: np.ndarray) -> bytes:
    """An 8-bit RGB PNG of an (h, w, 3) uint8 array, written with zlib alone."""
    height, width, _ = pixels.shape
    rows = b"".join(b"\x00" + row.tobytes() for row in pixels)  # filter 0: raw rows

    def chunk(tag: bytes, body: bytes) -> bytes:
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body)))

    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", header)
            + chunk(b"IDAT", zlib.compress(rows)) + chunk(b"IEND", b""))


class _StandInImage:
    """What `load_image` uses of a Pillow image, read from a `_png` file."""

    def __init__(self, fh):
        data = fh.read()
        width, height = struct.unpack(">II", data[16:24])
        (length,) = struct.unpack(">I", data[33:37])  # the IDAT chunk follows IHDR
        rows = np.frombuffer(zlib.decompress(data[41:41 + length]), dtype=np.uint8)
        self.pixels = rows.reshape(height, 1 + 3 * width)[:, 1:].reshape(height, width, 3)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def convert(self, mode):
        assert mode == "RGB"
        return self

    def resize(self, size):
        assert size == self.pixels.shape[1::-1]  # the tests load at the file's own size
        return self

    def __array__(self, dtype=None, copy=None):
        return self.pixels.astype(dtype)


@pytest.fixture(params=["Pillow", "stand-in"])
def image_reader(request, monkeypatch):
    """Decode with Pillow where it is installed, and with a stand-in `PIL` module
    everywhere, so the image path runs with or without Pillow."""
    if request.param == "Pillow":
        pytest.importorskip("PIL.Image")
    else:
        pil = types.ModuleType("PIL")
        pil.Image = types.SimpleNamespace(open=_StandInImage)
        monkeypatch.setitem(sys.modules, "PIL", pil)


class TestImageFiles:
    PIXELS = np.random.default_rng(4).integers(0, 256, size=(8, 8, 3), dtype=np.uint8)

    def test_png_decodes_and_feeds_the_extractor(self, image_reader, tmp_path):
        path = tmp_path / "img.png"
        path.write_bytes(_png(self.PIXELS))
        arr = load_image(path, 8)
        assert arr.shape == (3, 8, 8) and arr.min() >= 0.0 and arr.max() <= 1.0
        assert np.array_equal(arr, self.PIXELS.transpose(2, 0, 1) / 255.0)
        model = EmoModel(small_config(image_extractor="tiny-cnn", image_size=8))
        feature = model.image_feature(str(path)).data
        assert feature.shape == (IMAGE_FEATURE_DIM,)
        assert np.array_equal(feature, model.image_feature(arr).data)

    def test_garbage_png_raises_bad_image(self, image_reader, tmp_path):
        path = tmp_path / "img.png"
        path.write_bytes(b"\x00\x01 not an image")
        with pytest.raises(BadImage):
            load_image(path, 8)
        model = EmoModel(small_config(image_extractor="tiny-cnn", image_size=8))
        with pytest.raises(BadImage):
            model.image_feature(path)

    def test_missing_image_file_is_not_a_bad_image(self, image_reader, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "none.png", 8)

    def test_missing_pillow_is_not_a_bad_image(self, monkeypatch, tmp_path):
        monkeypatch.setitem(sys.modules, "PIL", None)  # `import PIL` fails
        path = tmp_path / "img.png"
        path.write_bytes(_png(self.PIXELS))
        with pytest.raises(MissingArtifacts, match="needs Pillow"):
            load_image(path, 8)

    def test_missing_file_without_pillow_is_not_found(self, monkeypatch, tmp_path):
        monkeypatch.setitem(sys.modules, "PIL", None)
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "none.png", 8)


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
        model = EmoModel(small_config(decoder_blocks=decoder_blocks, dtype=dtype))
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
        model = EmoModel(small_config(decoder_blocks=decoder_blocks))
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
    model = EmoModel(ModelConfig(seed=3, dtype=dtype, **FIXED_MODELS[name]))
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
        save_checkpoint(tmp_path / "old.emc", {"kind": "emomodel", "config": config,
                                               "vocab_hash": model.vocab.vocab_hash},
                        model.parameters())
        loaded = EmoModel.load(tmp_path / "old.emc")
        assert loaded.config == model.config
        ids = np.array([BOS, 5, 140, 270, EOS])
        assert np.array_equal(loaded.decode_logits(loaded.memory(feature), ids[:-1]).data,
                              model.decode_logits(model.memory(feature), ids[:-1]).data)
        assert loaded.generate(feature, max_len=12).ids == model.generate(feature, max_len=12).ids


class TestDecoderCacheViews:
    """The cache's head-major views are its key and value storage, laid out
    as `attend` lays out the rows it is given."""

    @staticmethod
    def _filled_cache(dtype):
        model = EmoModel(small_config(decoder_blocks=2, head_count=4, dtype=dtype))
        cache = DecoderCache(model)
        rng = np.random.default_rng(8)
        cache.keys[...] = rng.normal(size=cache.keys.shape)
        cache.values[...] = rng.normal(size=cache.values.shape)
        return model, cache, rng

    def test_views_alias_the_storage(self):
        model, cache, rng = self._filled_cache("float64")
        heads, d = model.config.head_count, model.config.model_dim
        for block in range(len(model.decoder_stack)):
            key, value = rng.normal(size=(2, d))
            cache.keys[block][5], cache.values[block][5] = key, value
            assert np.array_equal(cache.key_heads[block][:, :, 5], key.reshape(heads, -1))
            assert np.array_equal(cache.value_heads[block][:, 5], value.reshape(heads, -1))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("rows", [1, 2, None], ids=["one", "two_masked", "max_len_plus_1"])
    def test_core_over_views_matches_attend(self, dtype, rows):
        """`attend_heads` over sliced views gives `attend`'s bytes on the
        same rows as (T, d) arrays, from operands of the same strides."""
        model, cache, rng = self._filled_cache(dtype)
        heads, d = model.config.head_count, model.config.model_dim
        rows = rows or model.config.max_len + 1
        tq = min(rows, 2)  # generation's first step decodes two rows, then one
        mask = causal_mask(tq, rows, dtype) if tq > 1 else None
        q = rng.normal(size=(tq, 3 * d)).astype(dtype)[:, :d]  # as a fused projection's slice
        for block in range(len(model.decoder_stack)):
            key_heads = cache.key_heads[block][:, :, :rows]
            value_heads = cache.value_heads[block][:, :rows]
            want, (qh, kh, vh, weights) = attend(q, cache.keys[block][:rows],
                                                 cache.values[block][:rows], heads, mask)
            assert (key_heads.strides, value_heads.strides) == (kh.transpose(0, 2, 1).strides,
                                                                vh.strides)
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


def _format_version_2(tmp_path):
    path = _model_file(tmp_path)
    path.write_bytes(path.read_bytes().replace(b'"format_version": 1', b'"format_version": 2'))
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
    "format_version_2": (lambda tmp: EmoModel.load(_format_version_2(tmp)),
                         CheckpointCorrupt, "unsupported format version"),
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
        save_checkpoint(path, legacy_meta(vocab_size, hidden, running), blocks.items())
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
        save_checkpoint(path, dict(legacy_meta(16, 8, None), extra={}), blocks.items())
        with pytest.raises(CheckpointCorrupt, match="unexpected block bn1"):
            load_va_predictor(path, "x")

    def test_running_statistics_without_norm_blocks(self, tmp_path):
        _, running = legacy_predictor(16, 8)
        path = tmp_path / "va.emc"
        save_checkpoint(path, legacy_meta(16, 8, running),
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
        save_checkpoint(path, meta, blocks.items())
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
        assert meta["foo"] == [1, 2] and meta["format_version"] == 1
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
        path.write_bytes(OVERFLOW_CHECKPOINT)
        with pytest.raises(CheckpointCorrupt, match="truncated block w"):
            read_two_blocks(path)


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
    save_checkpoint(path, {"kind": "emomodel", "config": asdict(model.config),
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
        save_checkpoint(path, {"kind": "emomodel", "config": asdict(model.config),
                               "vocab_hash": model.vocab.vocab_hash}, blocks.items())
        with pytest.raises(CheckpointCorrupt, match="do not match"):
            EmoModel.load(path)
