"""The fused `linear`, `layer_norm` and `attention` nodes against the
composite graphs they replaced, kept here as the reference, with the
`matmul` node those graphs were built from."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emogen.config import ModelConfig
from emogen.errors import ShapeMismatch
from emogen.model import IMAGE_FEATURE_DIM, EmoModel
from emogen.nn import (LayerNorm, Linear, MultiHeadAttention, Tensor, attention, normalize,
                       gradcheck, layer_norm, linear, reshape, softmax,
                       tensor_mean, tensor_sum)
from emogen.nn.layers import MASK_VALUE
from emogen.nn.tensor import _as_tensor, _unbroadcast
from emogen.tokenizer import BOS, EOS, PAD
from emogen.training import cce_loss


# --- reference: the composite graphs, one node per numpy step ---

# the package's `nn.matmul`, verbatim: no model path uses it since the fused
# nodes replaced these graphs
def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")
    data = a.data @ b.data

    def backward(grad):
        if a.requires_grad:
            ga = grad @ np.swapaxes(b.data, -1, -2) if b.data.ndim > 1 else np.outer(grad, b.data)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ grad if a.data.ndim > 1 else np.outer(a.data, grad)
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return Tensor._result(data, (a, b), backward)


def ref_linear(layer, x):
    out = matmul(x, layer.weight)
    return out if layer.bias is None else out + layer.bias


def ref_inv_sqrt(a):
    """`1 / sqrt(a)` as the composite graph computed it: `(a ** 0.5) ** -1.0`,
    with the chain rule through both powers."""
    root = a.data ** 0.5

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * -1.0 * root ** -2.0 * 0.5 * a.data ** -0.5)

    return Tensor._result(root ** -1.0, (a,), backward)


def ref_layer_norm(norm, x):
    stats = x.shape[:-1] + (1,)
    mean = reshape(tensor_mean(x, axis=-1), stats)
    centered = x - mean
    var = reshape(tensor_mean(centered * centered, axis=-1), stats)
    normed = centered * ref_inv_sqrt(var + norm.eps)
    return normed * norm.gamma + norm.beta


def ref_transpose(a, axes):
    """Permute the axes of `a`; its gradient flows back through the inverse."""
    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.transpose(grad, np.argsort(axes)))

    return Tensor._result(np.transpose(a.data, axes), (a,), backward)


def ref_attention(mha, q, k, v, causal=False):
    tq, tk, d = q.shape[0], k.shape[0], q.shape[1]
    head_dim = d // mha.heads

    def split_heads(x, t):
        return ref_transpose(reshape(x, (t, mha.heads, head_dim)), (1, 0, 2))

    qh = split_heads(ref_linear(mha.wq, q), tq)
    kh = split_heads(ref_linear(mha.wk, k), tk)
    vh = split_heads(ref_linear(mha.wv, v), tk)
    scores = matmul(qh, ref_transpose(kh, (0, 2, 1))) * (1.0 / np.sqrt(head_dim))
    # the query rows are the last rows of the keys
    if causal:
        scores = scores + np.triu(np.full((tq, tk), MASK_VALUE), k=tk - tq + 1)
    heads = matmul(softmax(scores), vh)
    merged = reshape(ref_transpose(heads, (1, 0, 2)), (tq, d))
    return ref_linear(mha.wo, merged)


def ref_self_attention(mha, x):
    return ref_attention(mha, x, x, x, x.shape[0] > 1)


def _weighted(out, seed):
    return tensor_sum(out * Tensor(np.random.default_rng(seed).normal(size=out.shape)))


# (name, causal, query rows); "last_row" is generation's newest row, which
# attends to every key without a mask; the causal query rows are the last
# rows of the keys, as in cached decoding
ATTENTION_CASES = [
    ("causal", True, None),
    ("last_row", False, slice(-1, None)),
    ("causal_last_row", True, slice(-1, None)),
    ("causal_last_rows", True, slice(-2, None)),
]


def fused_attention(mha, q, x, causal):
    """`mha(x)`, which is causal over more than one row; or, when the query
    rows `q` are only the last rows of `x`, the fused `attention` on the
    projections, whose forward kernel `attend_heads` a cached decoding step runs."""
    if q is x:
        assert causal == (x.shape[0] > 1)
        return mha(x)
    tq, tk = q.shape[0], x.shape[0]
    mask = np.triu(np.full((tq, tk), MASK_VALUE), k=tk - tq + 1) if causal and tq > 1 else None
    return mha.wo(attention(mha.wq(q), mha.wk(x), mha.wv(x), mha.heads, mask))


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

    @pytest.mark.parametrize("name,causal,rows", ATTENTION_CASES,
                             ids=[case[0] for case in ATTENTION_CASES])
    def test_attention(self, name, causal, rows):
        mha, x = _mha(5)
        q = Tensor(x.data[rows].copy(), requires_grad=True) if rows else x

        def fn():
            return _weighted(fused_attention(mha, q, x, causal), 6)

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

    @pytest.mark.parametrize("name,causal,rows", ATTENTION_CASES + [
        ("no_mask", False, None)], ids=[case[0] for case in ATTENTION_CASES] + ["no_mask"])
    def test_attention(self, name, causal, rows):
        mha, x = _mha(13, d=16, heads=4)
        if name == "no_mask":  # one row, as the [BOS] encoder runs: no mask is built
            x = Tensor(x.data[:1])
        q = Tensor(x.data[rows]) if rows else x
        fused = fused_attention(mha, q, x, causal).data
        assert np.array_equal(fused, ref_attention(mha, q, x, x, causal).data)


def _reference_layers(monkeypatch):
    monkeypatch.setattr(Linear, "__call__", ref_linear)
    monkeypatch.setattr(LayerNorm, "__call__", ref_layer_norm)
    monkeypatch.setattr(MultiHeadAttention, "__call__", ref_self_attention)


def _model_step(model, feature, ids):
    """Logits and every parameter gradient of one teacher-forced loss."""
    model.zero_grad()
    logits = model.decode_logits(model.memory(feature), ids[:-1])
    cce_loss(logits, ids[1:], pad_mask=ids[1:] != PAD).backward()
    return logits.data, {name: p.grad.copy() for name, p in model.parameters()
                         if p.grad is not None}


class TestWholeModelAgainstReference:
    @pytest.mark.parametrize("decoder_blocks", [0, 2])
    def test_fixed_context_logits_bit_identical_and_gradients_close(self, monkeypatch,
                                                                    decoder_blocks):
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


# --- `normalize` on one row against its array statistics ---

def ref_normalize(x, gamma, beta, eps):
    """`nn.normalize` before it kept one row's statistics as scalars, verbatim."""
    scale = 1.0 / x.shape[-1]  # the reductions are `ndarray.sum`'s ufunc, without its wrapper
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) * scale
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) * scale
    inv_std = ((var + eps) ** 0.5) ** -1.0
    normed = centered * inv_std
    return normed * gamma + beta, normed, inv_std


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), d=st.integers(1, 160),
       flat=st.booleans(), log_magnitude=st.floats(-4, 4), constant=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_one_row_normalize_matches_array_statistics(dtype, d, flat, log_magnitude, constant,
                                                    seed):
    """Shapes (d,) and (1, d), magnitudes 1e-4..1e4, and rows of one value
    (variance 0): `out`, `normed` and `inv_std` are the reference's bytes.
    Each example checks 50 rows: a rounding slip shows on few rows in 1,000."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(50, 1 if constant else d)) * 10.0 ** log_magnitude
    for row in np.broadcast_to(rows, (50, d)).astype(dtype):
        x = row if flat else row[None, :]
        gamma, beta = rng.normal(size=(2, d)).astype(dtype)
        got = normalize(x, gamma, beta, LayerNorm.eps)
        want = ref_normalize(x, gamma, beta, LayerNorm.eps)
        assert np.shape(got[2]) == ()  # one row takes the scalar branch
        for ours, theirs in zip(got, want):
            assert ours.dtype == theirs.dtype == dtype
            assert np.asarray(ours).tobytes() == theirs.tobytes()


def test_normalize_on_rows_keeps_array_statistics():
    rng = np.random.default_rng(21)
    for dtype in (np.float32, np.float64):
        x, gamma, beta = (rng.normal(size=shape).astype(dtype) for shape in ((3, 7), 7, 7))
        got, want = normalize(x, gamma, beta, 1e-5), ref_normalize(x, gamma, beta, 1e-5)
        for ours, theirs in zip(got, want):
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
