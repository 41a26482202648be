"""A model holds only its weights, once, in its dtype, until it trains: a
build casts each weight as it is drawn, a load draws nothing and copies one
block at a time into the weights, and Adam allocates the moments on its first
step. The whole-model constructor and the whole-file reader these replaced
are kept here as the references, and each pair must give the same parameter
bytes. A training step's backward releases each graph node once it has
passed the node's gradient on, which bounds the step's peak."""

import json
import math
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from emogen.config import ModelConfig
from emogen.errors import CheckpointCorrupt
from emogen.model import (CHECKPOINT_MAGIC, IMAGE_FEATURE_DIM, Block, EmoModel,
                          TinyCnnExtractor, VaPredictor, load_va_predictor, save_checkpoint,
                          save_va_predictor)
from emogen.nn import Embedding, FeedForward, Linear, Tensor, sinusoidal_positions
from emogen.tokenizer import BOS, EOS
from emogen.training import TrainConfig, TrainSample, fit

from test_model import _with_key_biases, legacy_meta, legacy_predictor, small_config

MB = 1 << 20
SHAPES = {"default": {}, "2+2": {"encoder_blocks": 2, "decoder_blocks": 2},
          "no-decoder-blocks": {"decoder_blocks": 0}, "tiny-cnn": {"image_extractor": "tiny-cnn"}}


# --- reference: the replaced constructor, float64 draws then one cast ---

def ref_build(config):
    self = EmoModel.__new__(EmoModel)
    self.config = config
    self.vocab = config.vocabulary()
    self.dtype = np.dtype(config.dtype)
    rng = np.random.default_rng(config.seed)
    d, heads = config.model_dim, config.head_count

    self.extractor = TinyCnnExtractor(rng) if config.image_extractor == "tiny-cnn" else None
    self.embedding = Embedding(self.vocab.total_size, d, rng)
    self.encoder_stack = [Block(d, heads, config.ff_dim, rng)
                          for _ in range(config.encoder_blocks)]
    self.img_proj = Linear(IMAGE_FEATURE_DIM, d, rng)
    self.mem_proj = Linear(2 * d, d, rng)
    if config.decoder_blocks > 0:
        self.decoder_stack = [Block(d, heads, config.ff_dim, rng)
                              for _ in range(config.decoder_blocks)]
        self.dense_decoder = None
    else:
        self.decoder_stack = []
        self.dense_decoder = FeedForward(d, config.ff_dim, rng)
    self.out_proj = Linear(d, self.vocab.total_size, rng)
    self.cast(self.dtype)
    # positions 0..max_len (slot 0 is the prepended memory position)
    self.positions = sinusoidal_positions(config.max_len + 1, d).astype(self.dtype)
    return self


# --- reference: the replaced whole-file reader ---

def ref_load_checkpoint(path):
    data = open(path, "rb").read()
    assert data[:8] == CHECKPOINT_MAGIC
    pos = 8
    (meta_len,) = struct.unpack_from("<I", data, pos)
    pos += 4
    meta = json.loads(data[pos:pos + meta_len])
    pos += meta_len
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    blocks = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        pos += 2
        name = data[pos:pos + name_len].decode()
        pos += name_len
        (ndim,) = struct.unpack_from("<B", data, pos)
        pos += 1
        shape = struct.unpack_from(f"<{ndim}I", data, pos)
        pos += 4 * ndim
        size = math.prod(shape)
        blocks[name] = np.frombuffer(data[pos:pos + 8 * size], dtype="<f8").reshape(shape).copy()
        pos += 8 * size
    return meta, blocks


def ref_assign_blocks(module, blocks):
    blocks = {name: block for name, block in blocks.items()
              if not name.endswith(".attn.wk.bias")}
    params = dict(module.parameters())
    assert set(params) == set(blocks)
    for name, param in params.items():
        assert param.data.shape == blocks[name].shape
        param.data = blocks[name].astype(param.data.dtype)


def _same_parameters(ours, theirs):
    assert [name for name, _ in ours.parameters()] == [name for name, _ in theirs.parameters()]
    for (name, p), (_, q) in zip(ours.parameters(), theirs.parameters()):
        assert p.data.dtype == q.data.dtype and p.data.shape == q.data.shape, name
        assert p.data.tobytes() == q.data.tobytes(), name


def _forbid_draws(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a load draws no weights: every one comes from the file")

    monkeypatch.setattr(np.random, "default_rng", draw)


def _samples(n=2, seed=24):
    rng = np.random.default_rng(seed)
    return [TrainSample(rng.normal(size=IMAGE_FEATURE_DIM), [BOS, 5, 140, 9, EOS])
            for _ in range(n)]


# --- the build casts each draw ---

@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_build_matches_whole_model_draw_then_cast(shape, dtype):
    config = ModelConfig(**SHAPES[shape], dtype=dtype)
    model, reference = EmoModel(config), ref_build(config)
    _same_parameters(model, reference)
    assert model.positions.tobytes() == reference.positions.tobytes()


# --- the streamed reader ---

@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", list(SHAPES))
def test_load_matches_whole_file_reader_in_every_shape(tmp_path, monkeypatch, shape, dtype):
    config = small_config(**SHAPES[shape], dtype=dtype, image_size=8, seed=7)
    path = tmp_path / "model.emc"
    EmoModel(config).save(path)
    reference = ref_build(config)
    ref_assign_blocks(reference, ref_load_checkpoint(path)[1])
    _forbid_draws(monkeypatch)
    _same_parameters(EmoModel.load(path), reference)


@pytest.mark.parametrize("key_biases", [False, True], ids=["plain", "key_biases"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_streamed_load_matches_whole_file_reader(tmp_path, dtype, key_biases):
    model = EmoModel(small_config(decoder_blocks=2, dtype=dtype, seed=5))
    # train a step, so the blocks are not the seed's draws the loader starts from
    fit(model, _samples(), TrainConfig(lr=1e-2, epochs=1, batch_size=2, va_loss_mode="off"))
    path = tmp_path / "model.emc"
    blocks = (_with_key_biases(model, np.random.default_rng(9)).items() if key_biases
              else model.parameters())
    save_checkpoint(path, {"kind": "emomodel", "config": asdict(model.config),
                           "vocab_hash": model.vocab.vocab_hash}, blocks)
    meta, ref_blocks = ref_load_checkpoint(path)
    reference = EmoModel(model.config)
    ref_assign_blocks(reference, ref_blocks)
    _same_parameters(EmoModel.load(path), reference)
    _same_parameters(EmoModel.load(path), model)


def test_streamed_va_predictor_matches_whole_file_reader(tmp_path, monkeypatch):
    predictor = VaPredictor(16, 8, np.random.default_rng(3))
    path = tmp_path / "va.emc"
    save_va_predictor(path, predictor, vocab_hash="abcd")
    reference = VaPredictor(16, 8, np.random.default_rng(0))
    ref_assign_blocks(reference, ref_load_checkpoint(path)[1])
    _forbid_draws(monkeypatch)
    _same_parameters(load_va_predictor(path, "abcd"), reference)


def test_streamed_batch_norm_predictor_matches_whole_file_reader(tmp_path, monkeypatch):
    """A batch-norm predictor's file: its norms folded into the whole file's
    blocks, as `s = gamma / sqrt(var + 1e-5)`, `W * s` and `(b - mean) * s + beta`."""
    blocks, running = legacy_predictor(16, 8)
    path = tmp_path / "va.emc"
    save_checkpoint(path, legacy_meta(16, 8, running), blocks.items())
    _, whole = ref_load_checkpoint(path)
    for fc, norm in (("fc1", "bn1"), ("fc2", "bn2")):
        scale = whole[f"{norm}.gamma"] / np.sqrt(np.array(running[f"{norm}_var"]) + 1e-5)
        whole[f"{fc}.weight"] = whole[f"{fc}.weight"] * scale
        whole[f"{fc}.bias"] = ((whole[f"{fc}.bias"] - np.array(running[f"{norm}_mean"])) * scale
                               + whole[f"{norm}.beta"])
        del whole[f"{norm}.gamma"], whole[f"{norm}.beta"]
    reference = VaPredictor(16, 8, np.random.default_rng(0))
    ref_assign_blocks(reference, whole)
    _forbid_draws(monkeypatch)
    _same_parameters(load_va_predictor(path, "x"), reference)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_block_beyond_float32_range(tmp_path, dtype):
    """Finite in the file's float64 is not enough: the value must be finite
    in the model's dtype once copied in."""
    model = EmoModel(small_config(dtype=dtype))
    wide = {name: Tensor(p.data.astype(np.float64)) for name, p in model.parameters()}
    wide["out_proj.weight"].data[3, 1] = 1e39
    path = tmp_path / "model.emc"
    save_checkpoint(path, {"kind": "emomodel", "config": asdict(model.config),
                           "vocab_hash": model.vocab.vocab_hash}, wide.items())
    if dtype == "float64":
        assert EmoModel.load(path).out_proj.weight.data[3, 1] == 1e39
        return
    with pytest.raises(CheckpointCorrupt, match="out_proj.weight holds values that are not "
                                                "finite as float32"):
        EmoModel.load(path)


# --- Adam moments on the first step ---

def test_built_and_loaded_models_hold_no_moments(tmp_path):
    model = EmoModel(small_config())
    model.save(tmp_path / "model.emc")
    for module in (model, EmoModel.load(tmp_path / "model.emc")):
        assert all(p.adam_m is None and p.adam_v is None and p.step_count == 0
                   for _, p in module.parameters())


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_step_allocates_moments_in_the_parameter_dtype(dtype):
    model = EmoModel(small_config(dtype=dtype))
    fit(model, _samples(), TrainConfig(lr=1e-3, epochs=1, batch_size=2, va_loss_mode="off"))
    for _, p in model.parameters():
        assert p.step_count == 1
        assert p.adam_m.dtype == p.adam_v.dtype == p.data.dtype == np.dtype(dtype)
        assert p.adam_m.shape == p.adam_v.shape == p.data.shape


def test_cast_with_and_without_moments():
    model = EmoModel(small_config(dtype="float64"))
    model.cast(np.float32)
    assert {p.data.dtype for _, p in model.parameters()} == {np.dtype(np.float32)}
    assert all(p.adam_m is None for _, p in model.parameters())
    fit(model, _samples(), TrainConfig(lr=1e-3, epochs=1, batch_size=2, va_loss_mode="off"))
    model.cast(np.float64)
    assert {arr.dtype for _, p in model.parameters()
            for arr in (p.data, p.adam_m, p.adam_v)} == {np.dtype(np.float64)}


# --- memory of the default model ---

def _traced(call):
    """`call()`'s result, the bytes it still holds and its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_default_model_build_keeps_its_weights_only():
    model, kept, peak = _traced(lambda: EmoModel(ModelConfig()))
    weights = sum(p.data.nbytes for _, p in model.parameters())
    assert weights < 4.1 * MB  # ~993k float32 values
    assert kept <= 5 * MB
    assert peak <= 6 * MB  # no float64 copy of the model: only one array's draw at a time


def test_default_model_load_peak(tmp_path):
    path = tmp_path / "model.emc"
    EmoModel(ModelConfig()).save(path)
    _, _, peak = _traced(lambda: EmoModel.load(path))
    assert peak <= 6 * MB  # the weights, plus one float64 block of the ~8 MB file at a time


def test_default_model_train_step_peak():
    model = EmoModel(ModelConfig())
    rng = np.random.default_rng(0)
    samples = [TrainSample(rng.normal(size=IMAGE_FEATURE_DIM),
                           [BOS, *rng.integers(5, 100, size=254).tolist(), EOS])]
    config = TrainConfig(lr=1e-3, epochs=1, va_loss_mode="off")
    fit(model, samples, config)  # allocates the Adam moments
    _, _, peak = _traced(lambda: fit(model, samples, config))
    # ~11.6 MiB; 16.15 when backward held every node and its gradient until it returned
    assert peak <= 13 * MB
