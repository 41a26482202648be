"""Differentiable layers built on the autodiff tensor.

Every layer is a Module exposing `parameters()` as (name, Parameter)
pairs in a stable order, so optimizer state and checkpoints line up
across runs.
"""

from __future__ import annotations

import numpy as np

from ..errors import BatchTooSmall, ShapeMismatch
from .optim import Parameter
from .tensor import (Tensor, attention, layer_norm, linear, matmul, relu, reshape,
                     sqrt, take, tensor_mean)
from .tensor import softmax  # noqa: F401  # not called here; perfbench/tracing.py patches this name

MASK_VALUE = -1e30  # additive attention mask; exp() underflows to exactly 0


class Module:
    """Base with recursive, insertion-ordered parameter discovery."""

    def parameters(self) -> list[tuple[str, Parameter]]:
        out: list[tuple[str, Parameter]] = []
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                out.append((name, value))
            elif isinstance(value, Module):
                out.extend((f"{name}.{sub}", p) for sub, p in value.parameters())
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        out.extend((f"{name}.{i}.{sub}", p) for sub, p in item.parameters())
        return out

    def zero_grad(self) -> None:
        for _, param in self.parameters():
            param.grad = None

    def cast(self, dtype) -> None:
        """Cast every parameter and its Adam moments to `dtype`, in place."""
        for _, param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)
            param.adam_m = param.adam_m.astype(dtype, copy=False)
            param.adam_v = param.adam_v.astype(dtype, copy=False)


def _uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        self.weight = Parameter(_uniform_init(rng, in_dim, (in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Embedding(Module):
    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(vocab_size, dim)))

    def __call__(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.weight.shape[0]):
            raise ShapeMismatch("token id outside embedding table")
        return take(self.weight, ids)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


class BatchNorm(Module):
    """1-D batch norm over axis 0; biased batch variance, momentum running stats."""

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self.eps = eps
        self.momentum = momentum
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x: Tensor, train: bool = False) -> Tensor:
        if x.shape[-1] != self.gamma.shape[0]:
            raise ShapeMismatch(f"batch norm dim {self.gamma.shape[0]} vs input {x.shape}")
        if train:
            if x.shape[0] < 2:
                raise BatchTooSmall("batch norm in train mode needs batch size >= 2")
            mean = tensor_mean(x, axis=0, keepdims=True)
            centered = x - mean
            var = tensor_mean(centered * centered, axis=0, keepdims=True)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean.data.reshape(-1))
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var.data.reshape(-1))
            normed = centered / sqrt(var + self.eps)
        else:
            normed = (x - self.running_mean) * (1.0 / np.sqrt(self.running_var + self.eps))
        return normed * self.gamma + self.beta


class MultiHeadAttention(Module):
    """`heads` attention heads over `dim` features; `nn.attention` checks
    that `heads` divides `dim`."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        self.heads = heads
        self.wq = Linear(dim, dim, rng)
        # no key bias: it shifts all of one query's scores alike, which
        # softmax cancels, so its gradient is zero
        self.wk = Linear(dim, dim, rng, bias=False)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def __call__(self, q: Tensor, k: Tensor, v: Tensor, causal: bool = False,
                 key_mask: np.ndarray | None = None) -> Tensor:
        tq, tk = q.shape[0], k.shape[0]
        mask = np.triu(np.full((tq, tk), MASK_VALUE), k=1) if causal else None
        if key_mask is not None and not np.all(key_mask):
            keys = np.where(np.asarray(key_mask, dtype=bool), 0.0, MASK_VALUE)
            mask = keys if mask is None else mask + keys
        if mask is not None:
            mask = mask.astype(q.data.dtype, copy=False)
        heads = attention(self.wq(q), self.wk(k), self.wv(v), self.heads, mask)
        return self.wo(heads)


class FeedForward(Module):
    """Position-wise dense -> ReLU -> dense."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(relu(self.fc1(x)))


# --- convolution (im2col via gather, so backward comes from the graph) ---

def _pad2d(x: Tensor, p: int) -> Tensor:
    if p == 0:
        return x
    data = np.pad(x.data, ((0, 0), (p, p), (p, p)))

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad[:, p:-p, p:-p])

    return Tensor._result(data, (x,), backward)


class Conv2d(Module):
    """3x3-style conv on (C, H, W) maps, stride 1, zero padding."""

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 rng: np.random.Generator, padding: int = 1):
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(_uniform_init(rng, fan_in, (out_channels, fan_in)))
        self.bias = Parameter(np.zeros(out_channels))
        self.kernel = kernel
        self.padding = padding
        self.in_channels = in_channels
        self.out_channels = out_channels

    def __call__(self, x: Tensor) -> Tensor:
        c, h, w = x.shape
        if c != self.in_channels:
            raise ShapeMismatch(f"conv expects {self.in_channels} channels, got {c}")
        k, p = self.kernel, self.padding
        oh, ow = h + 2 * p - k + 1, w + 2 * p - k + 1
        xp = _pad2d(x, p)

        ci, ki, kj = np.meshgrid(np.arange(c), np.arange(k), np.arange(k), indexing="ij")
        oi, oj = np.meshgrid(np.arange(oh), np.arange(ow), indexing="ij")
        rows = ki.reshape(-1, 1) + oi.reshape(1, -1)
        cols = kj.reshape(-1, 1) + oj.reshape(1, -1)
        chans = np.broadcast_to(ci.reshape(-1, 1), rows.shape)

        patches = take(xp, (chans, rows, cols))  # (C*k*k, oh*ow)
        out = matmul(self.weight, patches) + reshape(self.bias, (self.out_channels, 1))
        return reshape(out, (self.out_channels, oh, ow))


def avg_pool2d(x: Tensor, size: int = 2) -> Tensor:
    c, h, w = x.shape
    if h % size or w % size:
        raise ShapeMismatch(f"pooling size {size} does not divide {(h, w)}")
    windows = reshape(x, (c, h // size, size, w // size, size))
    return tensor_mean(windows, axis=(2, 4))


def global_avg_pool(x: Tensor) -> Tensor:
    return tensor_mean(x, axis=(1, 2))


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Deterministic sine/cosine position table, shape (length, dim)."""
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(positions * div)
    table[:, 1::2] = np.cos(positions * div[: dim // 2])
    return table
