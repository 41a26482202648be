"""The train step's in-place rewrites against the code they replaced, kept
here as the reference: `take`'s slice scatter, Adam's update, the causal
mask table and `linear`'s bias add. Each must give the same bytes."""

import numpy as np
import pytest

from emogen.nn import Adam, Tensor, linear, take
from emogen.nn import layers
from emogen.nn.layers import MASK_VALUE, causal_mask
from emogen.nn.optim import Parameter

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
