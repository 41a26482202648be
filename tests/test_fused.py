"""The fused `linear`, `layer_norm` and `attention` nodes against the
composite graphs they replaced, kept here as the reference."""

import numpy as np
import pytest

from emogen.config import ModelConfig
from emogen.errors import ShapeMismatch
from emogen.model import IMAGE_FEATURE_DIM, EmoModel
from emogen.nn import (LayerNorm, Linear, MultiHeadAttention, Tensor, attention,
                       gradcheck, layer_norm, linear, matmul, reshape, softmax,
                       sqrt, tensor_mean, tensor_sum, transpose)
from emogen.nn.layers import MASK_VALUE
from emogen.tokenizer import BOS, EOS, PAD
from emogen.training import cce_loss


# --- reference: the composite graphs, one node per numpy step ---

def ref_linear(layer, x):
    out = matmul(x, layer.weight)
    return out if layer.bias is None else out + layer.bias


def ref_layer_norm(norm, x):
    mean = tensor_mean(x, axis=-1, keepdims=True)
    centered = x - mean
    var = tensor_mean(centered * centered, axis=-1, keepdims=True)
    normed = centered / sqrt(var + norm.eps)
    return normed * norm.gamma + norm.beta


def ref_attention(mha, q, k, v, causal=False, key_mask=None):
    tq, tk, d = q.shape[0], k.shape[0], q.shape[1]
    head_dim = d // mha.heads

    def split_heads(x, t):
        return transpose(reshape(x, (t, mha.heads, head_dim)), (1, 0, 2))

    qh = split_heads(ref_linear(mha.wq, q), tq)
    kh = split_heads(ref_linear(mha.wk, k), tk)
    vh = split_heads(ref_linear(mha.wv, v), tk)
    scores = matmul(qh, transpose(kh, (0, 2, 1))) * (1.0 / np.sqrt(head_dim))
    mask = np.triu(np.full((tq, tk), MASK_VALUE), k=1) if causal else None
    if key_mask is not None and not np.all(key_mask):
        keys = np.where(np.asarray(key_mask, dtype=bool), 0.0, MASK_VALUE)
        mask = keys if mask is None else mask + keys
    if mask is not None:
        scores = scores + mask
    heads = matmul(softmax(scores, axis=-1), vh)
    merged = reshape(transpose(heads, (1, 0, 2)), (tq, d))
    return ref_linear(mha.wo, merged)


def _weighted(out, seed):
    return tensor_sum(out * Tensor(np.random.default_rng(seed).normal(size=out.shape)))


# (name, causal, key_mask, query rows); the last case is generation's newest
# row, which attends to every key without a mask
ATTENTION_CASES = [
    ("causal", True, None, None),
    ("key_mask", False, np.array([True, True, False, True, False]), None),
    ("causal_key_mask", True, np.array([True, False, True, True, False]), None),
    ("last_row", False, None, slice(-1, None)),
]


def _mha(seed=0, d=8, heads=2):
    rng = np.random.default_rng(seed)
    mha = MultiHeadAttention(d, heads, rng)
    return mha, Tensor(rng.normal(size=(5, d)), requires_grad=True)


class TestGradcheck:
    @pytest.mark.parametrize("shape", [(4,), (3, 4)], ids=["1d", "2d"])
    def test_linear(self, shape):
        rng = np.random.default_rng(1)
        layer = Linear(4, 3, rng)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        report = gradcheck(lambda: _weighted(linear(x, layer.weight, layer.bias), 2),
                           [("x", x)] + layer.parameters())
        assert report.worst < 1e-4, report.max_errors

    @pytest.mark.parametrize("shape", [(6,), (3, 6)], ids=["1d", "2d"])
    def test_layer_norm(self, shape):
        rng = np.random.default_rng(3)
        norm = LayerNorm(6)
        norm.gamma.data = rng.normal(size=6)
        norm.beta.data = rng.normal(size=6)
        x = Tensor(rng.normal(size=shape) * 2 + 1, requires_grad=True)
        report = gradcheck(lambda: _weighted(layer_norm(x, norm.gamma, norm.beta, norm.eps), 4),
                           [("x", x)] + norm.parameters())
        assert report.worst < 1e-4, report.max_errors

    @pytest.mark.parametrize("name,causal,key_mask,rows", ATTENTION_CASES,
                             ids=[case[0] for case in ATTENTION_CASES])
    def test_attention(self, name, causal, key_mask, rows):
        mha, x = _mha(5)
        q = Tensor(x.data[rows].copy(), requires_grad=True) if rows else x

        def fn():
            return _weighted(mha(q, x, x, causal=causal, key_mask=key_mask), 6)

        leaves = [("x", x)] + ([("q", q)] if rows else []) + mha.parameters()
        report = gradcheck(fn, leaves)
        assert report.worst < 1e-4, report.max_errors


class TestSingleNode:
    def test_each_fused_op_is_one_node_over_its_operands(self):
        rng = np.random.default_rng(7)
        layer, norm = Linear(4, 4, rng), LayerNorm(4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        assert layer(x)._parents == (x, layer.weight, layer.bias)
        assert linear(x, layer.weight)._parents == (x, layer.weight)
        assert norm(x)._parents == (x, norm.gamma, norm.beta)
        assert attention(x, k, v, 2)._parents == (x, k, v)

    def test_attention_backward_leaves_upstream_gradient_untouched(self):
        mha, x = _mha(8)
        out = attention(mha.wq(x), mha.wk(x), mha.wv(x), 2,
                        np.triu(np.full((5, 5), MASK_VALUE), k=1))
        grad = np.random.default_rng(9).normal(size=out.shape)
        before = grad.copy()
        out._backward_fn(grad)
        assert np.array_equal(grad, before)

    def test_shape_errors(self):
        rng = np.random.default_rng(10)
        layer, norm = Linear(4, 3, rng), LayerNorm(4)
        with pytest.raises(ShapeMismatch):
            layer(Tensor(np.ones((2, 5))))
        with pytest.raises(ShapeMismatch):
            norm(Tensor(np.ones((2, 5))))
        with pytest.raises(ShapeMismatch):
            attention(Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6))),
                      Tensor(np.ones((3, 6))), 4)
        with pytest.raises(ShapeMismatch):
            attention(Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6))),
                      Tensor(np.ones((2, 6))), 2)


class TestBitIdenticalForward:
    @pytest.mark.parametrize("shape", [(4,), (5, 4)], ids=["1d", "2d"])
    def test_linear(self, shape):
        rng = np.random.default_rng(11)
        layer = Linear(4, 7, rng)
        layer.bias.data = rng.normal(size=7)
        x = Tensor(rng.normal(size=shape))
        assert np.array_equal(layer(x).data, ref_linear(layer, x).data)

    def test_layer_norm(self):
        rng = np.random.default_rng(12)
        norm = LayerNorm(16)
        norm.gamma.data, norm.beta.data = rng.normal(size=16), rng.normal(size=16)
        x = Tensor(rng.normal(size=(9, 16)) * 3 + 5)
        assert np.array_equal(norm(x).data, ref_layer_norm(norm, x).data)

    @pytest.mark.parametrize("name,causal,key_mask,rows", ATTENTION_CASES + [
        ("no_mask", False, None, None)], ids=[case[0] for case in ATTENTION_CASES] + ["no_mask"])
    def test_attention(self, name, causal, key_mask, rows):
        mha, x = _mha(13, d=16, heads=4)
        q = Tensor(x.data[rows]) if rows else x
        fused = mha(q, x, x, causal=causal, key_mask=key_mask).data
        assert np.array_equal(fused, ref_attention(mha, q, x, x, causal, key_mask).data)


def _reference_layers(monkeypatch):
    monkeypatch.setattr(Linear, "__call__", ref_linear)
    monkeypatch.setattr(LayerNorm, "__call__", ref_layer_norm)
    monkeypatch.setattr(MultiHeadAttention, "__call__", ref_attention)


def _model_step(model, feature, ids):
    """Logits and every parameter gradient of one teacher-forced loss."""
    model.zero_grad()
    logits = model.forward_logits(feature, ids, ids[:-1])
    cce_loss(logits, ids[1:], pad_mask=ids[1:] != PAD).backward()
    return logits.data, {name: p.grad.copy() for name, p in model.parameters()
                         if p.grad is not None}


class TestWholeModelAgainstReference:
    @pytest.mark.parametrize("decoder_blocks", [0, 2])
    def test_logits_bit_identical_and_gradients_close(self, monkeypatch, decoder_blocks):
        config = ModelConfig(model_dim=16, head_count=4, ff_dim=24, encoder_blocks=2,
                             decoder_blocks=decoder_blocks, max_len=32, seed=4,
                             dtype="float64")
        model = EmoModel(config)
        rng = np.random.default_rng(14)
        feature = rng.normal(size=IMAGE_FEATURE_DIM)
        body = rng.integers(3, model.vocab.total_size, size=18)
        ids = np.concatenate([[BOS], body, [EOS], [PAD] * 3])

        logits, grads = _model_step(model, feature, ids)
        with monkeypatch.context() as patch:
            _reference_layers(patch)
            ref_logits, ref_grads = _model_step(model, feature, ids)

        assert np.array_equal(logits, ref_logits)
        assert grads.keys() == ref_grads.keys()
        for name, grad in grads.items():
            diff = np.linalg.norm(grad - ref_grads[name])
            assert diff <= 1e-10 * np.linalg.norm(ref_grads[name]), name
