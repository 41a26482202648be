"""The in-place rewrites against the code they replaced, kept here as the
reference: `take`'s slice scatter, Adam's update, the causal mask table,
`linear`'s bias add and the cached decoding step's block state. Each must
give the same bytes."""

import numpy as np
import pytest

from emogen.model import IMAGE_FEATURE_DIM, DecoderCache, EmoModel, ModelConfig
from emogen.nn import (Adam, Tensor, affine, attend_heads, linear, no_grad, normalize,
                       split_heads, take)
from emogen.nn import layers
from emogen.nn.layers import MASK_VALUE, causal_mask
from emogen.nn.optim import Parameter
from emogen.tokenizer import BOS, EOS

DTYPES = [np.float32, np.float64]


# --- reference: the replaced code ---

def ref_take_grad(shape, index, grad, dtype):
    full = np.zeros(shape, dtype)
    np.add.at(full, index, grad)
    return full


def ref_adam_step(params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    for param in params:
        grad = param.grad if param.grad is not None else np.zeros_like(param.data)
        param.step_count += 1
        t = param.step_count
        if param.adam_m is None:  # moments are allocated on the first step
            param.adam_m, param.adam_v = np.zeros_like(param.data), np.zeros_like(param.data)
        param.adam_m = beta1 * param.adam_m + (1.0 - beta1) * grad
        param.adam_v = beta2 * param.adam_v + (1.0 - beta2) * grad * grad
        m_hat = param.adam_m / (1.0 - beta1 ** t)
        v_hat = param.adam_v / (1.0 - beta2 ** t)
        param.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        param.grad = None


def ref_causal_mask(tq, tk, dtype):
    return np.triu(np.full((tq, tk), MASK_VALUE, dtype), k=tk - tq + 1)


# the cached step before each block's step state: `DecoderCache`, `Block.decode`,
# `EmoModel._decode_step` and their array helpers

class RefDecoderCache:
    def __init__(self, model):
        rows, heads = model.config.max_len + 1, model.config.head_count
        shape = (len(model.decoder_stack), rows, model.config.model_dim)
        self.keys = np.empty(shape, model.dtype)
        self.values = np.empty(shape, model.dtype)
        self.key_heads = [split_heads(k, heads).transpose(0, 2, 1) for k in self.keys]
        self.value_heads = [split_heads(v, heads) for v in self.values]
        self.qkv = [np.concatenate([b.attn.wq.weight.data, b.attn.wk.weight.data,
                                    b.attn.wv.weight.data], axis=1) for b in model.decoder_stack]
        self.length = 0  # ids decoded so far


def ref_block_decode(self, x, qkv, keys, values, key_heads, value_heads, mask):
    attn, new, d = self.attn, slice(len(keys) - len(x), None), x.shape[1]
    proj = x @ qkv  # the biases in place, as `affine` adds them
    proj[:, :d] += attn.wq.bias.data
    proj[:, 2 * d:] += attn.wv.bias.data
    keys[new], values[new] = proj[:, d:2 * d], proj[:, 2 * d:]
    out, _ = attend_heads(split_heads(proj[:, :d], attn.heads), key_heads, value_heads, mask)
    x = _norm(self.norm1, x + _dense(attn.wo, out))
    return _norm(self.norm2, x + _feed_forward(self.ffn, x))


def _dense(layer, x):
    return affine(x, layer.weight.data, None if layer.bias is None else layer.bias.data)


def _norm(layer, x):
    return normalize(x, layer.gamma.data, layer.beta.data, layer.eps)[0]


def _feed_forward(layer, x):
    hidden = _dense(layer.fc1, x)
    return _dense(layer.fc2, np.maximum(hidden, 0.0, out=hidden))  # as `relu` computes it


def ref_decode_step(self, memory, ids, cache):
    done, n = cache.length, cache.length + ids.size
    x = self.embedding.weight.data[ids] + self.positions[done + 1:n + 1]
    if self.decoder_stack:
        if not done:  # the memory row's keys and values go into the caches
            x = np.concatenate([memory + self.positions[:1], x])
        mask = causal_mask(len(x), n + 1, x.dtype) if len(x) > 1 else None
        for block, qkv, keys, values, key_heads, value_heads in zip(
                self.decoder_stack, cache.qkv, cache.keys, cache.values,
                cache.key_heads, cache.value_heads):
            x = ref_block_decode(block, x, qkv, keys[:n + 1], values[:n + 1],
                                 key_heads[:, :, :n + 1], value_heads[:, :n + 1], mask)
        x = x if done else x[1:]
    else:
        x = _feed_forward(self.dense_decoder, x + memory)
    cache.length = n
    return _dense(self.out_proj, x)


# --- the rewrites ---

TAKE_INDICES = {
    "slice": slice(1, None),
    "stepped_slice": slice(None, None, 2),
    "negative_slice": slice(-3, None),
    "reversed_slice": slice(5, 0, -2),
    "int": 2,
    "negative_int": -1,
    "repeated_ids": np.array([1, 1, 3, 0, 1]),
    "tuple": (np.array([0, 2, 2, 5]), np.array([1, 3, 3, 0])),
    "tuple_with_slice": (slice(None), np.array([2, 2])),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", list(TAKE_INDICES))
def test_take_backward_matches_add_at(name, dtype):
    index = TAKE_INDICES[name]
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(6, 4)).astype(dtype), requires_grad=True)
    out = take(a, index)
    grad = rng.normal(size=out.shape).astype(dtype)
    grad.flat[0] = -0.0  # 0 + -0 is +0 either way
    out.backward(grad)
    expected = ref_take_grad(a.shape, index, grad, dtype)
    assert a.grad.dtype == expected.dtype
    assert a.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_adam_matches_out_of_place_step(dtype):
    rng = np.random.default_rng(1)
    shapes = [(3, 4), (4,), (2, 2, 2)]
    ours = [Parameter(rng.normal(size=s).astype(dtype)) for s in shapes]
    theirs = [Parameter(p.data.copy()) for p in ours]
    optimizer = Adam([(str(k), p) for k, p in enumerate(ours)], lr=0.01)
    for step in range(4):
        for k, (p, q) in enumerate(zip(ours, theirs)):
            if (step, k) == (1, 2):
                p.grad = q.grad = None  # counts as zero
            else:
                p.grad = rng.normal(size=p.shape).astype(dtype)
                q.grad = p.grad.copy()
        optimizer.step()
        ref_adam_step(theirs, lr=0.01)
        for p, q in zip(ours, theirs):
            for got, want in ((p.data, q.data), (p.adam_m, q.adam_m), (p.adam_v, q.adam_v)):
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert got.tobytes() == want.tobytes()
            assert p.grad is None and p.step_count == step + 1


@pytest.mark.parametrize("dtype", DTYPES)
def test_causal_mask_matches_triu_across_one_growth(dtype, monkeypatch):
    monkeypatch.setattr(layers, "_CAUSAL", {})
    for longest in (20, 40):  # keys from long to short, so the table is built then grown once
        for tk in range(longest, 1, -1):
            for tq in range(2, tk + 1):
                mask = causal_mask(tq, tk, dtype)
                expected = ref_causal_mask(tq, tk, dtype)
                assert mask.dtype == expected.dtype and mask.shape == expected.shape
                assert mask.tobytes() == expected.tobytes(), (tq, tk)
        assert [t.shape for t in layers._CAUSAL.values()] == [(longest, longest)]
    assert not mask.flags.writeable
    with pytest.raises(ValueError):
        mask[0, 0] = 0.0


@pytest.mark.parametrize("x_dtype, bias_dtype", [(np.float32, np.float32),
                                                 (np.float64, np.float64),
                                                 (np.float32, np.float64),
                                                 (np.float64, np.float32)])
@pytest.mark.parametrize("x_shape", [(3, 4), (4,), (2, 3, 4)])
def test_linear_bias_add(x_shape, x_dtype, bias_dtype):
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=x_shape).astype(x_dtype))
    weight = Parameter(rng.normal(size=(4, 5)).astype(x_dtype))
    bias = Parameter(rng.normal(size=5).astype(bias_dtype))
    before = bias.data.copy()
    out = linear(x, weight, bias)
    expected = x.data @ weight.data + bias.data
    assert out.data.dtype == expected.dtype
    assert out.data.tobytes() == expected.tobytes()
    assert not np.shares_memory(out.data, bias.data)
    assert bias.data.tobytes() == before.tobytes()


# the default model, 2+2 blocks and a dense decoder, each with room for 255 steps
STEP_MODELS = {"default": {}, "two_two": dict(encoder_blocks=2, decoder_blocks=2, model_dim=32,
                                              head_count=4, ff_dim=48),
               "dense": dict(decoder_blocks=0, model_dim=32, head_count=4, ff_dim=48)}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", list(STEP_MODELS))
def test_decode_step_matches_reference(name, dtype):
    """Every logits row of a 255-step greedy piece, the two-row first step
    included, is the reference step's bytes, and `generate` picks its ids."""
    model = EmoModel(ModelConfig(seed=5, dtype=dtype, **STEP_MODELS[name]))
    rng = np.random.default_rng(6)
    for _, param in model.parameters():  # biases are drawn as 0, gammas as 1
        if param.data.ndim == 1:
            param.data[...] = rng.normal(size=param.data.shape)
    model.out_proj.bias.data[EOS] = -1e4  # no early stop: every step is compared
    feature = rng.normal(size=IMAGE_FEATURE_DIM)
    ids = [BOS]
    with no_grad():
        memory = model.memory(feature).data.reshape(1, -1)
        ours, theirs = DecoderCache(model), RefDecoderCache(model)
        for step in range(model.config.max_len - 1):
            newest = np.array(ids[-1:])
            got = model._decode_step(memory, newest, ours)
            want = ref_decode_step(model, memory, newest, theirs)
            assert got.dtype == want.dtype == np.dtype(dtype)
            assert got.tobytes() == want.tobytes(), step
            ids.append(int(want[0].argmax()))
    assert len(ids) == 256
    assert model.generate(feature).ids == tuple(ids)
