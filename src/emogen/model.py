"""Image-conditioned MIDI sequence model.

Pipeline: image feature extractor (tiny trainable CNN or ingestion of
precomputed 512-d features) -> MIDI transformer encoder with global
average pooling -> merge -> causal transformer decoder with a vocabulary
head, plus a separately pretrained Valence-Arousal predictor. The joint
image/MIDI vector conditions the decoder as a prepended memory position.
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
from .errors import (BadFeatureFile, BadImage, CheckpointCorrupt, ConfigError,
                     PrefixTooLong, VocabMismatch)
from .nn import (BatchNorm, Conv2d, Embedding, FeedForward, LayerNorm, Linear,
                 Module, MultiHeadAttention, Tensor, avg_pool2d, concat,
                 global_avg_pool, no_grad, relu, reshape, sinusoidal_positions,
                 softmax, take, tensor_sum)
from .pairing import VaPoint
from .tokenizer import BOS, EOS, PAD, TokenSequence

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
    try:
        from PIL import Image
        with Image.open(path) as img:
            rgb = img.convert("RGB").resize((size, size))
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise BadImage(f"{path}: {exc}") from exc
    arr = np.asarray(rgb, dtype=np.float64) / 255.0
    return arr.transpose(2, 0, 1)


class TinyCnnExtractor(Module):
    """Three conv blocks then global average pooling down to 512 features."""

    def __init__(self, rng: np.random.Generator):
        self.conv1 = Conv2d(3, 16, 3, rng)
        self.conv2 = Conv2d(16, 64, 3, rng)
        self.conv3 = Conv2d(64, IMAGE_FEATURE_DIM, 3, rng)

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

    def __call__(self, x: Tensor, causal: bool = False, key_mask: np.ndarray | None = None,
                 last_only: bool = False) -> Tensor:
        """All rows of `x`, or with `last_only` just the newest one as a (1, d) row.

        The newest row attends to every key, so `last_only` needs no causal mask.
        """
        q = take(x, slice(-1, None)) if last_only else x
        q = self.norm1(q + self.attn(q, x, x, causal=causal and not last_only,
                                     key_mask=key_mask))
        return self.norm2(q + self.ffn(q))


class VaPredictor(Module):
    """Token-histogram -> 3 FC layers (BatchNorm+ReLU twice, linear head)."""

    def __init__(self, vocab_size: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(vocab_size, hidden, rng)
        self.bn1 = BatchNorm(hidden)
        self.fc2 = Linear(hidden, hidden, rng)
        self.bn2 = BatchNorm(hidden)
        self.fc3 = Linear(hidden, 2, rng)
        self.vocab_size = vocab_size
        self.hidden = hidden

    def __call__(self, histograms: Tensor, train: bool = False) -> Tensor:
        x = relu(self.bn1(self.fc1(histograms), train=train))
        x = relu(self.bn2(self.fc2(x), train=train))
        return self.fc3(x)  # (B, 2) unclamped

    def predict_va(self, ids) -> VaPoint:
        """Deterministic eval-mode prediction, clamped onto [1, 9]^2."""
        hist = token_histogram(ids, self.vocab_size)
        with no_grad():
            out = self(Tensor(hist[None, :]), train=False).data[0]
        valence, arousal = np.clip(out, 1.0, 9.0)
        return VaPoint(float(valence), float(arousal))

    def state_extra(self) -> dict:
        return {"running": {"bn1_mean": self.bn1.running_mean.tolist(),
                            "bn1_var": self.bn1.running_var.tolist(),
                            "bn2_mean": self.bn2.running_mean.tolist(),
                            "bn2_var": self.bn2.running_var.tolist()}}

    def load_state_extra(self, extra: dict) -> None:
        running = extra["running"]
        stats = {key: np.array(running[key], dtype=np.float64)
                 for key in ("bn1_mean", "bn1_var", "bn2_mean", "bn2_var")}
        for key, value in stats.items():
            if value.shape != (self.hidden,):
                raise ValueError(f"{key} has shape {value.shape}, expected ({self.hidden},)")
        self.bn1.running_mean, self.bn1.running_var = stats["bn1_mean"], stats["bn1_var"]
        self.bn2.running_mean, self.bn2.running_var = stats["bn2_mean"], stats["bn2_var"]


def token_histogram(ids, vocab_size: int) -> np.ndarray:
    """L1-normalized token-count histogram; zero vector for empty input."""
    ids = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
    hist = np.zeros(vocab_size)
    if ids.size == 0:
        return hist
    np.add.at(hist, ids, 1.0)
    return hist / ids.size


# --- the generator model ---

class EmoModel(Module):
    """Parameters, Adam moments and every array fed to the graph have
    `config.dtype`; weights are drawn in float64 first, so the seeded draws
    do not depend on it."""

    def __init__(self, config: ModelConfig):
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

    # --- encoders ---

    def image_feature(self, source) -> Tensor:
        """512-d image feature from an image array, feature vector, or file path."""
        if isinstance(source, Tensor):
            return source
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
        return self.extractor(Tensor(arr, dtype=self.dtype))

    def _check_ids(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab.total_size):
            raise VocabMismatch(f"token id outside vocabulary of {self.vocab.total_size}")
        return ids

    def encode_midi(self, ids) -> Tensor:
        """Embed, run the encoder stack, mean-pool over non-PAD positions."""
        ids = self._check_ids(ids)
        if ids.size > self.config.max_len:
            raise PrefixTooLong(f"{ids.size} tokens exceed max_len {self.config.max_len}")
        mask = ids != PAD
        x = self.embedding(ids) + Tensor(self.positions[1:ids.size + 1])
        for block in self.encoder_stack:
            x = block(x, key_mask=mask)
        weights = mask.astype(self.dtype)
        total = weights.sum()
        weights = weights / total if total > 0 else np.full_like(weights, 1.0 / len(weights))
        return tensor_sum(x * Tensor(weights[:, None]), axis=0)  # (model_dim,)

    def merge(self, image_feature: Tensor, midi_context: Tensor) -> Tensor:
        """Project the image feature and concatenate with the MIDI context."""
        return concat([self.img_proj(image_feature), midi_context], axis=0)  # (2d,)

    def decode_logits(self, joint: Tensor, prefix_ids, last_only: bool = False) -> Tensor:
        """Per-position vocabulary logits for a prefix, conditioned on `joint`.

        With `last_only` the result is the (1, vocab) row of the newest
        position: the top decoder block and the head run on that row alone.
        """
        ids = self._check_ids(prefix_ids)
        n = ids.size
        if n == 0:
            raise PrefixTooLong("prefix must contain at least BOS")
        if n > self.config.max_len:
            raise PrefixTooLong(f"prefix of {n} exceeds max_len {self.config.max_len}")
        d = self.config.model_dim
        memory = self.mem_proj(joint)  # (d,)
        if self.decoder_stack:
            emb = self.embedding(ids) + Tensor(self.positions[1:n + 1])
            x = concat([reshape(memory, (1, d)) + Tensor(self.positions[:1]), emb], axis=0)
            for block in self.decoder_stack[:-1]:
                x = block(x, causal=True)
            x = self.decoder_stack[-1](x, causal=True, last_only=last_only)
            if not last_only:
                x = take(x, slice(1, n + 1))
        else:
            start = n - 1 if last_only else 0
            emb = self.embedding(ids[start:]) + Tensor(self.positions[start + 1:n + 1])
            x = self.dense_decoder(emb + reshape(memory, (1, d)))
        return self.out_proj(x)  # (n, vocab), or (1, vocab) with last_only

    def forward_logits(self, image_source, full_ids, prefix_ids) -> Tensor:
        """Teacher-forcing forward: context from `full_ids`, logits over `prefix_ids`."""
        feature = self.image_feature(image_source)
        context = self.encode_midi(full_ids)
        joint = self.merge(feature, context)
        return self.decode_logits(joint, prefix_ids)

    # --- generation ---

    def generate(self, image_source, max_len: int | None = None,
                 strategy: str = "greedy", temperature: float = 1.0,
                 seed: int = 0) -> TokenSequence:
        """Autoregressive decoding from BOS; greedy or seeded temperature sampling."""
        if max_len is not None and max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {max_len}")
        limit = self.config.max_len if max_len is None else min(max_len, self.config.max_len)
        if strategy not in ("greedy", "temperature"):
            raise ConfigError(f"unknown strategy {strategy!r}")
        if strategy == "temperature" and not temperature > 0:
            raise ConfigError(f"temperature must be positive, got {temperature}")
        rng = np.random.default_rng(seed)
        ids = [BOS]
        with no_grad():
            image = self.img_proj(self.image_feature(image_source))
            while len(ids) < limit:
                # the context is re-encoded from the prefix, so memory slot 0
                # changes every step and no decoder state can be cached
                context = self.encode_midi(np.array(ids))
                joint = concat([image, context], axis=0)  # as in `merge`
                logits = self.decode_logits(joint, np.array(ids), last_only=True).data[0]
                if strategy == "greedy":
                    next_id = int(np.argmax(logits))
                else:
                    probs = softmax(Tensor(logits * (1.0 / temperature))).data
                    next_id = int(rng.choice(len(probs), p=probs / probs.sum()))
                ids.append(next_id)
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
        meta, blocks = load_checkpoint(path)
        if meta.get("kind") != "emomodel":
            raise CheckpointCorrupt(f"{path}: not a model checkpoint")
        config = meta.get("config")
        if isinstance(config, dict):  # written before the dtype knob: float64
            config = {"dtype": "float64", **config}
        try:
            model = cls(ModelConfig.from_dict(config))
        except ConfigError as exc:
            raise CheckpointCorrupt(f"{path}: {exc}") from exc
        if meta.get("vocab_hash") != model.vocab.vocab_hash:
            raise VocabMismatch(f"{path}: vocabulary hash mismatch")
        _assign_blocks(model, blocks, path)
        return model


def save_va_predictor(path: str | Path, predictor: VaPredictor,
                      vocab_hash: str, extra: dict | None = None) -> None:
    meta = {"kind": "va_predictor", "vocab_hash": vocab_hash,
            "vocab_size": predictor.vocab_size, "hidden": predictor.hidden,
            "extra": dict(extra or {}, **predictor.state_extra())}
    save_checkpoint(path, meta, predictor.parameters())


def load_va_predictor(path: str | Path, vocab_hash: str | None = None) -> VaPredictor:
    meta, blocks = load_checkpoint(path)
    if meta.get("kind") != "va_predictor":
        raise CheckpointCorrupt(f"{path}: not a VA-predictor checkpoint")
    if vocab_hash is not None and meta.get("vocab_hash") != vocab_hash:
        raise VocabMismatch(f"{path}: vocabulary hash mismatch")
    sizes = [meta.get(key) for key in ("vocab_size", "hidden")]
    if any(type(size) is not int or size < 1 for size in sizes):
        raise CheckpointCorrupt(f"{path}: metadata 'vocab_size' and 'hidden' must be "
                                f"positive integers, got {sizes}")
    predictor = VaPredictor(*sizes, np.random.default_rng(0))
    _assign_blocks(predictor, blocks, path)
    try:
        predictor.load_state_extra(meta["extra"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorrupt(f"{path}: bad running statistics in metadata: {exc!r}") from exc
    return predictor


def _assign_blocks(module: Module, blocks: dict[str, np.ndarray], path) -> None:
    # older checkpoints hold `*.attn.wk.bias` blocks; such a bias shifts all
    # of one query's scores alike, which softmax cancels, so they are dropped
    blocks = {name: block for name, block in blocks.items()
              if not name.endswith(".attn.wk.bias")}
    params = dict(module.parameters())
    if set(params) != set(blocks):
        raise CheckpointCorrupt(f"{path}: parameter blocks do not match the architecture")
    for name, param in params.items():
        if param.data.shape != blocks[name].shape:
            raise CheckpointCorrupt(f"{path}: block {name} has shape {blocks[name].shape}, "
                                    f"expected {param.data.shape}")
        with np.errstate(over="ignore"):  # a float64 value beyond float32 range
            param.data = blocks[name].astype(param.data.dtype)
        if not np.isfinite(param.data).all():
            raise CheckpointCorrupt(f"{path}: block {name} holds values that are not "
                                    f"finite as {param.data.dtype}")


# --- checkpoint container ---

def save_checkpoint(path: str | Path, meta: dict, named_params) -> None:
    """Versioned binary container: magic, JSON metadata, named LE blocks.

    Written atomically: a failure part-way leaves any earlier checkpoint at
    `path` untouched.
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
        yield struct.pack("<H", len(encoded)) + encoded
        yield struct.pack("<B", arr.ndim)
        yield struct.pack(f"<{arr.ndim}I", *arr.shape)
        yield arr.tobytes()


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CheckpointCorrupt(f"{path}: {exc}") from exc
    if len(data) < 12 or data[:8] != CHECKPOINT_MAGIC:
        raise CheckpointCorrupt(f"{path}: bad magic header")
    pos = 8
    try:
        (meta_len,) = struct.unpack_from("<I", data, pos)
        pos += 4
        meta = json.loads(data[pos:pos + meta_len])
        pos += meta_len
        (count,) = struct.unpack_from("<I", data, pos)
        pos += 4
        blocks: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, pos)
            pos += 2
            name = data[pos:pos + name_len].decode()
            pos += name_len
            (ndim,) = struct.unpack_from("<B", data, pos)
            pos += 1
            shape = struct.unpack_from(f"<{ndim}I", data, pos)
            pos += 4 * ndim
            size = math.prod(shape)  # exact: np.prod can overflow to 0
            raw = data[pos:pos + 8 * size]
            if len(raw) != 8 * size:
                raise CheckpointCorrupt(f"{path}: truncated block {name}")
            pos += 8 * size
            blocks[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    # ValueError: bad JSON or UTF-8, or more dimensions than numpy allows;
    # RecursionError: JSON nested too deeply
    except (struct.error, ValueError, RecursionError) as exc:
        raise CheckpointCorrupt(f"{path}: {exc}") from exc
    if not isinstance(meta, dict) or meta.get("format_version") != 1:
        raise CheckpointCorrupt(f"{path}: unsupported format version")
    return meta, blocks
