"""Image-conditioned MIDI sequence model, its VA predictor and file formats.

The image feature (a precomputed 512-d vector or the tiny CNN's output) is
projected to `model_dim` and concatenated with the MIDI context: the mean of
the encoder blocks' output over the one input [BOS]. `mem_proj` maps the
pair to the memory row, which the causal decoder blocks see as position 0
(or which is added to every position when there are no decoder blocks); the
vocabulary head reads the decoder's rows. Generation caches each decoder
block's keys and values, so a step decodes one row; that cached step runs
forward only, on plain arrays through the graph ops' own forward kernels
(`nn.affine`, `nn.normalize`, and `nn.attend`'s head-level core over the
cache's head-major views), so its logits are the same bytes as the graph's.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._files import write_atomic
from .config import ModelConfig
from .errors import (BadFeatureFile, BadImage, CheckpointCorrupt, ConfigError, MissingArtifacts,
                     NonFiniteError, PrefixTooLong, VocabMismatch, check_int, check_positive)
from .nn import (Conv2d, Embedding, FeedForward, LayerNorm, Linear, Module,
                 MultiHeadAttention, Tensor, affine, attend_heads, avg_pool2d, concat,
                 global_avg_pool, no_grad, normalize, relu, reshape,
                 sinusoidal_positions, softmax, take, tensor_mean)
from .nn.layers import _token_ids, causal_mask
from .pairing import VA_MAX, VA_MIN, VaPoint
from .tokenizer import BOS, EOS, TokenSequence

IMAGE_FEATURE_DIM = 512

FEATURE_MAGIC = b"EMGFEAT1"
CHECKPOINT_MAGIC = b"EMGCKPT1"


# --- image features ---

def validate_feature(vector: np.ndarray) -> np.ndarray:
    vector = np.asarray(vector, dtype=np.float64).reshape(-1)
    if vector.shape[0] != IMAGE_FEATURE_DIM:
        raise BadFeatureFile(f"expected {IMAGE_FEATURE_DIM} values, got {vector.shape[0]}")
    if not np.isfinite(vector).all():
        raise BadFeatureFile("non-finite value in image feature")
    return vector


def write_feature_file(path: str | Path, vector: np.ndarray) -> None:
    """512 little-endian float32 values behind a 16-byte magic/version header,
    written atomically."""
    vector = validate_feature(vector)
    write_atomic(path, [FEATURE_MAGIC + struct.pack("<II", 1, IMAGE_FEATURE_DIM),
                        vector.astype("<f4").tobytes()])


def read_feature_file(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:8] != FEATURE_MAGIC:
            raise BadFeatureFile(f"{path}: bad magic header")
        version, count = struct.unpack("<II", header[8:])
        if version != 1:
            raise BadFeatureFile(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = count * 4
    if len(payload) != expected:
        raise BadFeatureFile(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    vector = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    return validate_feature(vector)


def load_image(path: str | Path, size: int) -> np.ndarray:
    """Decode an image file to a (3, size, size) float array in [0, 1]."""
    with open(path, "rb") as fh:  # a missing file is FileNotFoundError, Pillow or not
        try:
            from PIL import Image
        except ImportError as exc:
            raise MissingArtifacts(f"{path}: decoding an image needs Pillow") from exc
        try:
            with Image.open(fh) as img:
                rgb = img.convert("RGB").resize((size, size))
        except Exception as exc:
            raise BadImage(f"{path}: {exc}") from exc
    arr = np.asarray(rgb, dtype=np.float64) / 255.0
    return arr.transpose(2, 0, 1)


class TinyCnnExtractor(Module):
    """Three conv blocks then global average pooling down to 512 features."""

    def __init__(self, rng: np.random.Generator):
        self.conv1 = Conv2d(3, 16, rng)
        self.conv2 = Conv2d(16, 64, rng)
        self.conv3 = Conv2d(64, IMAGE_FEATURE_DIM, rng)

    def __call__(self, image: Tensor) -> Tensor:
        x = avg_pool2d(relu(self.conv1(image)))
        x = avg_pool2d(relu(self.conv2(x)))
        x = relu(self.conv3(x))
        return global_avg_pool(x)  # (512,)


# --- transformer blocks ---

class Block(Module):
    """Self-attention, then per-position dense/ReLU, each added back and
    layer-normed; one class for encoder and decoder blocks."""

    def __init__(self, dim: int, heads: int, ff_dim: int, rng: np.random.Generator):
        self.attn = MultiHeadAttention(dim, heads, rng)
        self.norm1 = LayerNorm(dim)
        self.ffn = FeedForward(dim, ff_dim, rng)
        self.norm2 = LayerNorm(dim)

    def __call__(self, x: Tensor) -> Tensor:
        x = self.norm1(x + self.attn(x))
        return self.norm2(x + self.ffn(x))

    def decode(self, x: np.ndarray, qkv: np.ndarray, keys: np.ndarray, values: np.ndarray,
               key_heads: np.ndarray, value_heads: np.ndarray,
               mask: np.ndarray | None) -> np.ndarray:
        """`self(x)` forward only, on arrays, for rows `x` that follow those
        already in `keys` and `values`: their keys and values are written into
        the last `len(x)` rows there, and each row attends to all the rows
        `mask` lets it see, read through `key_heads` and `value_heads`, the
        cache's head-major views of those rows. `qkv` is `[wq | wk | wv]`."""
        attn, new, d = self.attn, slice(len(keys) - len(x), None), x.shape[1]
        proj = x @ qkv  # the biases in place, as `affine` adds them
        proj[:, :d] += attn.wq.bias.data
        proj[:, 2 * d:] += attn.wv.bias.data
        keys[new], values[new] = proj[:, d:2 * d], proj[:, 2 * d:]
        queries = proj[:, :d].reshape(len(x), attn.heads, -1).transpose(1, 0, 2)
        out, _ = attend_heads(queries, key_heads, value_heads, mask)
        x = _norm(self.norm1, x + _dense(attn.wo, out))
        return _norm(self.norm2, x + _feed_forward(self.ffn, x))


# array forms of the layers' forward passes, for decoding without a graph

def _dense(layer: Linear, x: np.ndarray) -> np.ndarray:
    return affine(x, layer.weight.data, None if layer.bias is None else layer.bias.data)


def _norm(layer: LayerNorm, x: np.ndarray) -> np.ndarray:
    return normalize(x, layer.gamma.data, layer.beta.data, layer.eps)[0]


def _feed_forward(layer: FeedForward, x: np.ndarray) -> np.ndarray:
    hidden = _dense(layer.fc1, x)
    return _dense(layer.fc2, np.maximum(hidden, 0.0, out=hidden))  # as `relu` computes it


class VaPredictor(Module):
    """Token-histogram -> 3 FC layers (ReLU after the first two, linear head)."""

    def __init__(self, vocab_size: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(vocab_size, hidden, rng)
        self.fc2 = Linear(hidden, hidden, rng)
        self.fc3 = Linear(hidden, 2, rng)
        self.vocab_size = vocab_size
        self.hidden = hidden

    def __call__(self, histograms: Tensor) -> Tensor:
        return self.fc3(relu(self.fc2(relu(self.fc1(histograms)))))  # (B, 2) unclamped

    def predict_va(self, ids) -> VaPoint:
        """Deterministic prediction, clamped onto the VA square."""
        hist = token_histogram(ids, self.vocab_size)
        with no_grad():
            out = self(Tensor(hist[None, :])).data[0]
        valence, arousal = np.clip(out, VA_MIN, VA_MAX)
        return VaPoint(float(valence), float(arousal))


def token_histogram(ids, vocab_size: int) -> np.ndarray:
    """L1-normalized token-count histogram; zero vector for empty input. Ids
    are checked as `nn.layers._token_ids` checks them."""
    ids = _token_ids(ids, vocab_size)
    hist = np.zeros(vocab_size)
    if ids.size == 0:
        return hist
    np.add.at(hist, ids, 1.0)
    return hist / ids.size


# --- the generator model ---

FIXED_CONTEXT = np.array([BOS])  # the encoder's input, in training and in generation


class _Draws:
    """The seeded generator as the layers see it: each weight array is drawn
    in float64 and cast to `dtype` before the next draw, the bytes of one
    whole-model draw cast once. Without `rng`, zeros for a file to fill."""

    def __init__(self, dtype, rng: np.random.Generator | None = None):
        self.dtype, self.rng = np.dtype(dtype), rng

    def uniform(self, low, high, size):
        return self._draw("uniform", low, high, size)

    def normal(self, loc, scale, size):
        return self._draw("normal", loc, scale, size)

    def _draw(self, method: str, a, b, size) -> np.ndarray:
        if self.rng is None:
            return np.zeros(size, self.dtype)
        return getattr(self.rng, method)(a, b, size=size).astype(self.dtype, copy=False)


class DecoderCache:
    """What `EmoModel.generate` keeps between the steps of one piece:
    each decoder block's keys and values (`keys[block, row]`), with room for
    the memory row plus `max_len` ids, and its `[wq | wk | wv]` weights as
    one array, copied here: a cache built before a weight update is stale.
    `key_heads` (H, head_dim, rows) and `value_heads` (H, rows, head_dim) view
    that storage as `attend_heads` reads it, with `attend`'s strides."""

    def __init__(self, model: "EmoModel"):
        rows, heads = model.config.max_len + 1, model.config.head_count
        shape = (len(model.decoder_stack), rows, model.config.model_dim)
        self.keys = np.empty(shape, model.dtype)
        self.values = np.empty(shape, model.dtype)
        self.key_heads = [k.reshape(rows, heads, -1).transpose(1, 2, 0) for k in self.keys]
        self.value_heads = [v.reshape(rows, heads, -1).transpose(1, 0, 2) for v in self.values]
        self.qkv = [np.concatenate([b.attn.wq.weight.data, b.attn.wk.weight.data,
                                    b.attn.wv.weight.data], axis=1) for b in model.decoder_stack]
        self.length = 0  # ids decoded so far


class EmoModel(Module):
    """Parameters, Adam moments (once a step allocates them) and every array
    fed to the graph have `config.dtype`; each weight is drawn in float64 and
    cast before the next draw, so the seeded draws do not depend on it."""

    def __init__(self, config: ModelConfig):
        self._build(config, np.random.default_rng(config.seed))

    def _build(self, config: ModelConfig, rng: np.random.Generator | None) -> None:
        self.config = config
        self.vocab = config.vocabulary()
        self.dtype = np.dtype(config.dtype)
        rng = _Draws(self.dtype, rng)
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
        self.cast(self.dtype)  # the biases and norm gains, made in float64
        # positions 0..max_len (slot 0 is the prepended memory position)
        self.positions = sinusoidal_positions(config.max_len + 1, d).astype(self.dtype)

    # --- encoders ---

    def image_feature(self, source) -> Tensor:
        """512-d image feature from an image array, feature vector, or file path."""
        if isinstance(source, (str, Path)):
            path = Path(source)
            if path.suffix == ".emf" or self.extractor is None:
                return Tensor(read_feature_file(path), dtype=self.dtype)
            arr = load_image(path, self.config.image_size)
        else:
            arr = np.asarray(source, dtype=np.float64)
            if arr.ndim == 1:
                return Tensor(validate_feature(arr), dtype=self.dtype)
            if self.extractor is None:
                raise BadImage("raw image given but the extractor is 'precomputed'")
            if arr.ndim != 3 or arr.size == 0:
                raise BadImage(f"expected a feature vector or a (3, H, W) image, got {arr.shape}")
        return self.extractor(Tensor(arr, dtype=self.dtype))

    def encode_midi(self, ids) -> Tensor:
        """Embed, run the encoder stack, mean-pool over the positions."""
        x = self.embedding(ids)  # checks the ids
        if x.shape[0] > self.config.max_len:
            raise PrefixTooLong(f"{x.shape[0]} tokens exceed max_len {self.config.max_len}")
        x = x + Tensor(self.positions[1:x.shape[0] + 1])
        for block in self.encoder_stack:
            x = block(x)
        return tensor_mean(x, axis=0)  # (model_dim,)

    def memory(self, image_source, context: Tensor | None = None) -> Tensor:
        """The (model_dim,) row that conditions the decoder: the projected
        image feature and `context`, the encoder's view of [BOS] (encoded
        here when None), mapped through `mem_proj`."""
        if context is None:
            context = self.encode_midi(FIXED_CONTEXT)
        return self.mem_proj(concat([self.img_proj(self.image_feature(image_source)), context]))

    def decode_logits(self, memory: Tensor, ids) -> Tensor:
        """Logits of the prefix `ids` given `memory`: a graph node, a row per id."""
        x = self.embedding(ids)  # checks the ids
        if x.shape[0] == 0:
            raise PrefixTooLong("no ids to decode: a prefix holds at least BOS")
        if x.shape[0] > self.config.max_len:
            raise PrefixTooLong(f"prefix of {x.shape[0]} exceeds max_len {self.config.max_len}")
        memory = reshape(memory, (1, self.config.model_dim))
        x = x + Tensor(self.positions[1:x.shape[0] + 1])
        if self.decoder_stack:
            x = concat([memory + Tensor(self.positions[:1]), x])
            for block in self.decoder_stack:
                x = block(x)
            x = take(x, slice(1, None))  # drop the memory row
        else:
            x = self.dense_decoder(x + memory)
        return self.out_proj(x)  # (ids.size, vocab)

    def _decode_step(self, memory: np.ndarray, ids: np.ndarray, cache: DecoderCache) -> np.ndarray:
        """`decode_logits` of checked `ids` after those in `cache` (at first, a
        prefix) for a (1, d) `memory` row: forward only, on arrays, same bytes."""
        done, n = cache.length, cache.length + ids.size
        x = self.embedding.weight.data[ids] + self.positions[done + 1:n + 1]
        if self.decoder_stack:
            if not done:  # the memory row's keys and values go into the caches
                x = np.concatenate([memory + self.positions[:1], x])
            mask = causal_mask(len(x), n + 1, x.dtype) if len(x) > 1 else None
            for block, qkv, keys, values, key_heads, value_heads in zip(
                    self.decoder_stack, cache.qkv, cache.keys, cache.values,
                    cache.key_heads, cache.value_heads):
                x = block.decode(x, qkv, keys[:n + 1], values[:n + 1],
                                 key_heads[:, :, :n + 1], value_heads[:, :n + 1], mask)
            x = x if done else x[1:]
        else:
            x = _feed_forward(self.dense_decoder, x + memory)
        cache.length = n
        return _dense(self.out_proj, x)

    # --- generation ---

    def generate(self, image_source, max_len: int | None = None,
                 strategy: str = "greedy", temperature: float = 1.0,
                 seed: int = 0) -> TokenSequence:
        """Autoregressive decoding from BOS; greedy or seeded temperature sampling.

        The memory row is computed once per piece and each decoder block's
        keys and values are cached in a `DecoderCache`, so a step runs the
        decoder on the newest id alone, through `_decode_step`."""
        if max_len is not None:
            check_int("max_len", max_len, 1)
        limit = self.config.max_len if max_len is None else min(max_len, self.config.max_len)
        if strategy not in ("greedy", "temperature"):
            raise ConfigError(f"unknown strategy {strategy!r}")
        if strategy == "temperature":
            check_positive("temperature", temperature)
        check_int("seed", seed, 0)
        rng = np.random.default_rng(seed)
        ids, newest = [BOS], np.array([BOS])
        with no_grad():
            memory = self.memory(image_source).data.reshape(1, -1)
            cache = DecoderCache(self)
            while len(ids) < limit:
                logits = self._decode_step(memory, newest, cache)[0]
                if strategy == "greedy":
                    next_id = int(logits.argmax())
                else:
                    with np.errstate(over="ignore", invalid="ignore"):  # checked below
                        scaled = logits * (1.0 / temperature)
                    if not np.isfinite(scaled).all():
                        raise ConfigError(f"temperature {temperature} is too small for these "
                                          f"logits: scaled by 1/temperature they overflow")
                    probs = softmax(Tensor(scaled)).data
                    next_id = int(rng.choice(len(probs), p=probs / probs.sum()))
                ids.append(next_id)
                newest[0] = next_id
                if next_id == EOS:
                    break
        return TokenSequence(ids=tuple(ids), max_len=limit)

    # --- persistence ---

    def save(self, path: str | Path, extra: dict | None = None) -> None:
        meta = {"kind": "emomodel", "config": asdict(self.config),
                "vocab_hash": self.vocab.vocab_hash, "extra": extra or {}}
        save_checkpoint(path, meta, self.parameters())

    @classmethod
    def load(cls, path: str | Path) -> "EmoModel":
        def build(meta: dict) -> EmoModel:
            if meta.get("kind") != "emomodel":
                raise CheckpointCorrupt(f"{path}: not a model checkpoint")
            config = meta.get("config")
            if isinstance(config, dict):
                config = {"dtype": "float64", **config}  # written before the dtype knob
                # older models also recorded how their encoder context was taken;
                # every model now encodes [BOS], whatever the checkpoint says
                config.pop("context", None)
            model = cls.__new__(cls)  # no draws: every weight comes from the file
            try:
                model._build(ModelConfig.from_dict(config), None)
            except ConfigError as exc:
                raise CheckpointCorrupt(f"{path}: {exc}") from exc
            if meta.get("vocab_hash") != model.vocab.vocab_hash:
                raise VocabMismatch(f"{path}: vocabulary hash mismatch")
            return model

        return load_checkpoint(path, build)[1]


def save_va_predictor(path: str | Path, predictor: VaPredictor,
                      vocab_hash: str, extra: dict | None = None) -> None:
    meta = {"kind": "va_predictor", "vocab_hash": vocab_hash,
            "vocab_size": predictor.vocab_size, "hidden": predictor.hidden,
            "extra": extra or {}}
    save_checkpoint(path, meta, predictor.parameters())


def load_va_predictor(path: str | Path, vocab_hash: str) -> VaPredictor:
    """The predictor in the file at `path`. A file written while the predictor
    had batch norm after `fc1` and `fc2` holds the norms' gamma/beta blocks
    `bn1.*`/`bn2.*` and their running statistics in `extra.running`; a
    `LayerNorm` has those blocks' names and shapes, so it holds each norm
    until `_fold_batch_norms` folds it away."""
    def build(meta: dict) -> VaPredictor:
        if meta.get("kind") != "va_predictor":
            raise CheckpointCorrupt(f"{path}: not a VA-predictor checkpoint")
        if meta.get("vocab_hash") != vocab_hash:
            raise VocabMismatch(f"{path}: vocabulary hash mismatch")
        for key in ("vocab_size", "hidden"):
            check_int(f"{path}: metadata {key!r}", meta.get(key), 1, CheckpointCorrupt)
        predictor = VaPredictor(meta["vocab_size"], meta["hidden"], _Draws(np.float64))  # zeros to fill
        extra = meta.get("extra")
        if isinstance(extra, dict) and "running" in extra:
            predictor.bn1, predictor.bn2 = LayerNorm(predictor.hidden), LayerNorm(predictor.hidden)
        return predictor

    meta, predictor = load_checkpoint(path, build)
    if hasattr(predictor, "bn1"):
        _fold_batch_norms(path, predictor, meta["extra"]["running"])
    return predictor


def _fold_batch_norms(path, predictor: VaPredictor, running) -> None:
    """Fold the eval-mode batch norms `bn1`/`bn2` into `fc1`/`fc2` and drop
    them: with `s = gamma / sqrt(var + 1e-5)`, `W' = W * s` and
    `b' = (b - mean) * s + beta`. A running statistic of the wrong shape, not
    finite, or a variance below 0 is `CheckpointCorrupt`."""
    try:
        stats = {key: np.array(running[key], np.float64)
                 for key in ("bn1_mean", "bn1_var", "bn2_mean", "bn2_var")}
        for key, value in stats.items():
            if value.shape != (predictor.hidden,):
                raise ValueError(f"{key} has shape {value.shape}, expected ({predictor.hidden},)")
            if not np.isfinite(value).all() or (key.endswith("_var") and (value < 0).any()):
                raise ValueError(f"running statistic {key} holds NaN, inf or a variance below 0")
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorrupt(f"{path}: bad running statistics in metadata: {exc!r}") from exc
    for fc, norm, name in ((predictor.fc1, predictor.bn1, "bn1"),
                           (predictor.fc2, predictor.bn2, "bn2")):
        scale = norm.gamma.data / np.sqrt(stats[f"{name}_var"] + 1e-5)
        fc.weight.data *= scale
        fc.bias.data = (fc.bias.data - stats[f"{name}_mean"]) * scale + norm.beta.data
    del predictor.bn1, predictor.bn2


# --- checkpoint container ---

def save_checkpoint(path: str | Path, meta: dict, named_params) -> None:
    """Versioned binary container: magic, JSON metadata, named LE blocks.

    Written atomically: a failure part-way, such as a block holding NaN or
    inf (`NonFiniteError`), leaves any earlier checkpoint at `path` untouched.
    """
    payload = json.dumps(dict(meta, format_version=1), sort_keys=True).encode()
    write_atomic(path, _checkpoint_chunks(payload, named_params))


def _checkpoint_chunks(payload: bytes, named_params):
    yield CHECKPOINT_MAGIC + struct.pack("<I", len(payload)) + payload
    named = list(named_params)
    yield struct.pack("<I", len(named))
    for name, param in named:
        encoded = name.encode()
        arr = np.ascontiguousarray(param.data, dtype="<f8")
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"block {name} holds NaN or inf values; no checkpoint written")
        yield struct.pack("<H", len(encoded)) + encoded
        yield struct.pack("<B", arr.ndim)
        yield struct.pack(f"<{arr.ndim}I", *arr.shape)
        yield arr.tobytes()


def load_checkpoint(path: str | Path, build) -> tuple[dict, Module]:
    """Read the checkpoint at `path` into the module `build(meta)` returns;
    return the metadata and the module.

    The blocks are read one at a time, each checked and copied into its
    parameter's array, cast to its dtype, before the next, so neither the
    whole file nor a float64 copy of every block is held. They must match
    the module's parameters one for one: a missing, unknown or repeated
    name, a wrong shape, a value not finite in the parameter's dtype, a
    block longer than the bytes left or bytes after the last block is
    `CheckpointCorrupt`. Older checkpoints hold `*.attn.wk.bias` blocks;
    such a bias shifts all of one query's scores alike, which softmax
    cancels, so they are skipped.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointCorrupt(f"{path}: {exc}") from exc
    with fh:
        size = fh.seek(0, 2)
        fh.seek(0)
        if size < 12 or fh.read(8) != CHECKPOINT_MAGIC:
            raise CheckpointCorrupt(f"{path}: bad magic header")
        (meta_len,) = struct.unpack("<I", fh.read(4))
        if meta_len > size - fh.tell():
            raise CheckpointCorrupt(f"{path}: truncated metadata")
        try:
            meta = json.loads(fh.read(meta_len))
        # ValueError: bad JSON or UTF-8; RecursionError: JSON nested too deeply
        except (ValueError, RecursionError) as exc:
            raise CheckpointCorrupt(f"{path}: {exc}") from exc
        if not isinstance(meta, dict) or meta.get("format_version") != 1:
            raise CheckpointCorrupt(f"{path}: unsupported format version")
        module = build(meta)
        params = dict(module.parameters())
        seen = set()
        try:
            (count,) = struct.unpack("<I", fh.read(4))
            for _ in range(count):
                (name_len,) = struct.unpack("<H", fh.read(2))
                name = fh.read(name_len).decode()
                (ndim,) = struct.unpack("<B", fh.read(1))
                shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
                nbytes = 8 * math.prod(shape)  # exact: np.prod can overflow to 0
                if nbytes > size - fh.tell():
                    raise CheckpointCorrupt(f"{path}: truncated block {name}")
                if name in seen:
                    raise CheckpointCorrupt(f"{path}: repeated block {name}")
                seen.add(name)
                if name.endswith(".attn.wk.bias"):
                    fh.seek(nbytes, 1)
                    continue
                if name not in params:
                    raise CheckpointCorrupt(f"{path}: unexpected block {name}")
                param = params[name]
                if param.data.shape != shape:
                    raise CheckpointCorrupt(f"{path}: block {name} has shape {shape}, "
                                            f"expected {param.data.shape}")
                block = np.frombuffer(fh.read(nbytes), "<f8").reshape(shape)
                with np.errstate(over="ignore"):  # a float64 value beyond float32 range
                    np.copyto(param.data, block, casting="same_kind")
                if not np.isfinite(param.data).all():
                    raise CheckpointCorrupt(f"{path}: block {name} holds values that are not "
                                            f"finite as {param.data.dtype}")
        # ValueError: a name that is not UTF-8
        except (struct.error, ValueError) as exc:
            raise CheckpointCorrupt(f"{path}: {exc}") from exc
        if not seen.issuperset(params):
            raise CheckpointCorrupt(f"{path}: parameter blocks do not match the architecture")
        if fh.tell() != size:
            raise CheckpointCorrupt(f"{path}: {size - fh.tell()} bytes after the last block")
    return meta, module
