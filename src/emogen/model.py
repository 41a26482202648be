"""Image-conditioned MIDI sequence model, its VA predictor and file formats.

The image feature, a 512-d vector that a pretrained CNN computed outside this
package and wrote to an `.emf` file, is projected to `model_dim` and
concatenated with the MIDI context: the mean of the encoder blocks' output
over the one input [BOS]. `mem_proj` maps the pair to the memory row, which
the causal decoder blocks see as position 0 (or which is added to every
position when there are no decoder blocks); the vocabulary head reads the
decoder's rows. Generation caches each decoder block's keys and values, so a
step decodes one row; that cached step runs forward only, on plain arrays
through the graph ops' own forward kernels (`nn.affine`, `nn.normalize`, and
`nn.attend_heads` over the cache's `nn.split_heads` views), so its logits are
the same bytes as the graph's. Its biases, gammas and betas are (1, n) row
views built once per piece, so a one-row step combines operands of one shape.
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
from .errors import (BadFeatureFile, CheckpointCorrupt, ConfigError, NonFiniteError,
                     PrefixTooLong, VocabMismatch, check_int, check_positive, is_int)
from .nn import (Embedding, FeedForward, LayerNorm, Linear, Module, MultiHeadAttention, Tensor,
                 affine, attend_heads, concat, no_grad, normalize, relu, reshape,
                 sinusoidal_positions, softmax, split_heads, take, tensor_mean)
from .nn.layers import _token_ids, causal_mask
from .pairing import VA_MAX, VA_MIN, VaPoint
from .tokenizer import BOS, EOS, TokenSequence

IMAGE_FEATURE_DIM = 512

FEATURE_MAGIC = b"EMGFEAT1"
CHECKPOINT_MAGIC = b"EMGCKPT1"


# --- image features ---

def validate_feature(vector: np.ndarray) -> np.ndarray:
    try:
        vector = np.asarray(vector, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged, or values that are not numbers
        raise BadFeatureFile(f"image feature is not a vector of numbers: {exc}") from exc
    if vector.shape != (IMAGE_FEATURE_DIM,):
        raise BadFeatureFile(f"expected a vector of {IMAGE_FEATURE_DIM} values, got shape "
                             f"{vector.shape}")
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

    def decode(self, x: np.ndarray, n: int, state: "BlockState",
               mask: np.ndarray | None) -> np.ndarray:
        """`self(x)` forward only, on arrays, for rows `x` that end the first
        `n` rows of `state`'s keys and values: their keys and values are
        written there, and each row attends to those of the `n` rows that
        `mask` lets it see, through the state's head-major views. Each
        residual sum runs in place on the fresh dense output: `h += x` is
        `x + h`, since addition commutes."""
        d = x.shape[1]
        proj = affine(x, state.qkv, state.qkv_bias)  # `[q | k | v]` of the new rows
        state.keys[n - len(x):n], state.values[n - len(x):n] = proj[:, d:2 * d], proj[:, 2 * d:]
        out, _ = attend_heads(split_heads(proj[:, :d], self.attn.heads),
                              state.key_heads[:, :, :n], state.value_heads[:, :n], mask)
        h = affine(out, self.attn.wo.weight.data, state.wo_bias)
        h += x
        x = normalize(h, *state.norm1, self.norm1.eps)[0]
        h = _feed_forward(x, *state.ffn)
        h += x
        return normalize(h, *state.norm2, self.norm2.eps)[0]


# array forms of the layers' parameters and forward passes, for decoding without a graph

def _row(param) -> np.ndarray:
    return param.data.reshape(1, -1)  # a (1, n) view


def _ffn_rows(layer: FeedForward) -> tuple:
    return layer.fc1.weight.data, _row(layer.fc1.bias), layer.fc2.weight.data, _row(layer.fc2.bias)


def _feed_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
                  b2: np.ndarray) -> np.ndarray:
    hidden = affine(x, w1, b1)
    return affine(np.maximum(hidden, 0.0, out=hidden), w2, b2)  # as `relu` computes it


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


class BlockState:
    """One decoder block's step state, built once per piece. `keys` and
    `values` have room for `rows` rows; `key_heads` (H, head_dim, rows) and
    `value_heads` (H, rows, head_dim) are `split_heads` views of them, as
    `attention` hands rows to `attend_heads`. `qkv` (`[wq | wk | wv]`) and
    `qkv_bias` (the (1, 3d) row `[bq | 0 | bv]`) are copies, so a state built
    before a weight update is stale; the 0 turns a key of -0.0 into +0.0,
    which changes no score. `wo_bias`, `norm1`/`norm2` (gamma, beta) and
    `ffn`'s biases are (1, n) views of the parameters: a (1, n) row combined
    with an (n,) array takes numpy's slower broadcasting loop."""

    def __init__(self, block: Block, rows: int):
        attn, d = block.attn, block.attn.wq.weight.shape[0]
        self.keys = np.empty((rows, d), attn.wk.weight.data.dtype)
        self.values = np.empty_like(self.keys)
        self.key_heads = split_heads(self.keys, attn.heads).transpose(0, 2, 1)
        self.value_heads = split_heads(self.values, attn.heads)
        self.qkv = np.concatenate([attn.wq.weight.data, attn.wk.weight.data,
                                   attn.wv.weight.data], axis=1)
        self.qkv_bias = np.concatenate([attn.wq.bias.data, np.zeros_like(attn.wv.bias.data),
                                        attn.wv.bias.data]).reshape(1, -1)
        self.wo_bias = _row(attn.wo.bias)
        self.norm1 = _row(block.norm1.gamma), _row(block.norm1.beta)
        self.norm2 = _row(block.norm2.gamma), _row(block.norm2.beta)
        self.ffn = _ffn_rows(block.ffn)


class DecoderCache:
    """What `EmoModel.generate` keeps between the steps of one piece: a
    `BlockState` per decoder block (`blocks`), with room for the memory row
    plus `max_len` ids; `out_proj`'s bias as a (1, V) row view (`out_bias`);
    and, with no decoder blocks, the dense decoder's `_ffn_rows` (`dense`)."""

    def __init__(self, model: "EmoModel"):
        rows = model.config.max_len + 1
        self.blocks = [BlockState(block, rows) for block in model.decoder_stack]
        self.dense = None if model.dense_decoder is None else _ffn_rows(model.dense_decoder)
        self.out_bias = _row(model.out_proj.bias)
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
        """The 512-d image feature of an `.emf` file path or a 1-D feature vector."""
        if isinstance(source, (str, Path)):
            return Tensor(read_feature_file(source), dtype=self.dtype)
        return Tensor(validate_feature(source), dtype=self.dtype)

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
            for block, state in zip(self.decoder_stack, cache.blocks):
                x = block.decode(x, n + 1, state, mask)
            x = x if done else x[1:]
        else:
            x = _feed_forward(x + memory, *cache.dense)
        cache.length = n
        return affine(x, self.out_proj.weight.data, cache.out_bias)

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
            model = cls.__new__(cls)  # no draws: every weight comes from the file
            try:
                model._build(ModelConfig.from_dict(meta.get("config")), None)
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
    def build(meta: dict) -> VaPredictor:
        if meta.get("kind") != "va_predictor":
            raise CheckpointCorrupt(f"{path}: not a VA-predictor checkpoint")
        if meta.get("vocab_hash") != vocab_hash:
            raise VocabMismatch(f"{path}: vocabulary hash mismatch")
        for key in ("vocab_size", "hidden"):
            check_int(f"{path}: metadata {key!r}", meta.get(key), 1, CheckpointCorrupt)
        return VaPredictor(meta["vocab_size"], meta["hidden"], _Draws(np.float64))  # zeros to fill

    return load_checkpoint(path, build)[1]


# --- checkpoint container ---

def save_checkpoint(path: str | Path, meta: dict, named_params) -> None:
    """Versioned binary container: magic, JSON metadata (`format_version` 3),
    named LE blocks, each `<f4` if its parameter is float32, else `<f8`.

    Written atomically: a failure part-way, such as a block holding NaN or
    inf (`NonFiniteError`), leaves any earlier checkpoint at `path` untouched.
    """
    payload = json.dumps(dict(meta, format_version=3), sort_keys=True).encode()

    def chunks():
        yield CHECKPOINT_MAGIC + struct.pack("<I", len(payload)) + payload
        named = list(named_params)
        yield struct.pack("<I", len(named))
        for name, param in named:
            encoded = name.encode()
            wide = param.data.dtype != np.float32
            arr = np.ascontiguousarray(param.data, "<f8" if wide else "<f4")
            if not np.isfinite(arr).all():
                raise NonFiniteError(f"block {name} holds NaN or inf values; no checkpoint written")
            yield struct.pack("<H", len(encoded)) + encoded
            yield struct.pack(f"<BB{arr.ndim}I", arr.itemsize, arr.ndim, *arr.shape)
            yield arr.tobytes()

    write_atomic(path, chunks())


def load_checkpoint(path: str | Path, build) -> tuple[dict, Module]:
    """Read the checkpoint at `path`, through `_upgrade` if version 1 or 2, into
    the module `build(meta)` returns; return the metadata and the module.

    The blocks are read one at a time, each checked and copied into its
    parameter's array, cast to its dtype, before the next, so neither the
    whole file nor a copy of every block is held. They must match the
    module's parameters one for one: a missing, unknown or repeated name, a
    value size other than 4 or 8 bytes, a wrong shape, a value not finite in
    the parameter's dtype, a block longer than the bytes left or bytes after
    the last block is `CheckpointCorrupt`.
    """
    def read_blocks():
        """Each block as (name, read-only array): `<f8` in version 1, else as its header says."""
        seen = set()
        (count,) = struct.unpack("<I", fh.read(4))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode()
            (itemsize,) = struct.unpack("<B", fh.read(1)) if version > 1 else (8,)
            if itemsize not in (4, 8):
                raise CheckpointCorrupt(f"{path}: block {name} has {itemsize}-byte values")
            (ndim,) = struct.unpack("<B", fh.read(1))
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
            nbytes = itemsize * math.prod(shape)  # exact: np.prod can overflow to 0
            if nbytes > size - fh.tell():
                raise CheckpointCorrupt(f"{path}: truncated block {name}")
            if name in seen:
                raise CheckpointCorrupt(f"{path}: repeated block {name}")
            seen.add(name)
            yield name, np.frombuffer(fh.read(nbytes), f"<f{itemsize}").reshape(shape)

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
        version = meta.get("format_version") if isinstance(meta, dict) else None
        if not is_int(version) or version not in (1, 2, 3):  # 2.0 and true are not versions
            raise CheckpointCorrupt(f"{path}: unsupported format version")
        blocks = read_blocks() if version == 3 else _upgrade(meta, read_blocks(), version)
        module = build(meta)
        params = dict(module.parameters())
        count = 0
        try:
            for name, block in blocks:
                if name not in params:
                    raise CheckpointCorrupt(f"{path}: unexpected block {name}")
                param = params[name]
                if param.data.shape != block.shape:
                    raise CheckpointCorrupt(f"{path}: block {name} has shape {block.shape}, "
                                            f"expected {param.data.shape}")
                with np.errstate(over="ignore"):  # a float64 value beyond float32 range
                    np.copyto(param.data, block, casting="same_kind")
                if not np.isfinite(param.data).all():
                    raise CheckpointCorrupt(f"{path}: block {name} holds values that are not "
                                            f"finite as {param.data.dtype}")
                count += 1
        # ValueError: a name that is not UTF-8, or a version-1 layout that
        # `_upgrade` cannot convert
        except (struct.error, ValueError) as exc:
            raise CheckpointCorrupt(f"{path}: {exc}") from exc
        if count != len(params):
            raise CheckpointCorrupt(f"{path}: parameter blocks do not match the architecture")
        if fh.tell() != size:
            raise CheckpointCorrupt(f"{path}: {size - fh.tell()} bytes after the last block")
    return meta, module


def _upgrade(meta: dict, blocks, version: int):
    """`blocks` of a version-1 or version-2 file in the current layout, `meta`
    upgraded in place: the one place that knows older layouts.

    Both versions: a model config whose `image_extractor` is "precomputed"
    loses that key and `image_size`, which such a model never read; any other
    extractor keeps them, and the config parser refuses them. Version 1 also:
    a model config without `dtype` is float64; a `context` key is dropped
    (every model encodes [BOS]); `*.attn.wk.bias` blocks are dropped (softmax
    cancels a bias on every key); a VA predictor's batch norms
    (`extra.running`) are folded."""
    config = meta.get("config")
    if isinstance(config, dict):
        if config.get("image_extractor") == "precomputed":
            del config["image_extractor"]
            config.pop("image_size", None)
        if version == 1:
            config.setdefault("dtype", "float64")
            config.pop("context", None)
    if version > 1:
        return blocks
    blocks = ((name, block) for name, block in blocks if not name.endswith(".attn.wk.bias"))
    extra = meta.get("extra")
    if meta.get("kind") == "va_predictor" and isinstance(extra, dict) and "running" in extra:
        blocks = _fold_batch_norms(meta, blocks)
    return blocks


def _fold_batch_norms(meta: dict, blocks):
    """`blocks` with the eval-mode batch norms `bn1`/`bn2` folded into `fc1`/`fc2`
    in float64: `s = gamma / sqrt(var + 1e-5)`, `W' = W * s`, `b' = (b - mean) * s
    + beta`. Bad running statistics or layout blocks are a `ValueError`."""
    hidden = meta["hidden"]  # checked by the build
    try:
        running = meta["extra"]["running"]
        stats = {key: np.array(running[key], np.float64)
                 for key in ("bn1_mean", "bn1_var", "bn2_mean", "bn2_var")}
        for key, value in stats.items():
            if value.shape != (hidden,):
                raise ValueError(f"{key} has shape {value.shape}, expected ({hidden},)")
            if not np.isfinite(value).all() or (key.endswith("_var") and (value < 0).any()):
                raise ValueError(f"running statistic {key} holds NaN, inf or a variance below 0")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad running statistics in metadata: {exc!r}") from exc
    shapes = {"fc1.weight": (meta["vocab_size"], hidden), "fc1.bias": (hidden,),
              "bn1.gamma": (hidden,), "bn1.beta": (hidden,), "fc2.weight": (hidden, hidden),
              "fc2.bias": (hidden,), "bn2.gamma": (hidden,), "bn2.beta": (hidden,)}
    held = {}
    for name, block in blocks:
        if name in shapes:
            held[name] = block
        else:
            yield name, block
    if len(held) != len(shapes):
        raise ValueError("parameter blocks do not match the architecture")
    for name, block in held.items():
        if block.shape != shapes[name] or not np.isfinite(block).all():
            raise ValueError(f"block {name} is not {shapes[name]} finite values")
    for fc, norm in (("fc1", "bn1"), ("fc2", "bn2")):
        scale = held[f"{norm}.gamma"] / np.sqrt(stats[f"{norm}_var"] + 1e-5)
        yield f"{fc}.weight", held[f"{fc}.weight"] * scale
        yield f"{fc}.bias", ((held[f"{fc}.bias"] - stats[f"{norm}_mean"]) * scale
                             + held[f"{norm}.beta"])
