"""Differentiable layers built on the autodiff tensor.

Every layer is a Module exposing `parameters()` as (name, Parameter)
pairs in a stable order, so optimizer state and checkpoints line up
across runs.
"""

from __future__ import annotations

import numpy as np

from ..errors import VocabMismatch
from .optim import Parameter
from .tensor import Tensor, attention, layer_norm, linear, relu, take
from .tensor import softmax  # noqa: F401  # not called here; perfbench/tracing.py patches this name

MASK_VALUE = -1e30  # additive attention mask; exp() underflows to exactly 0
_CAUSAL: dict[np.dtype, np.ndarray] = {}  # dtype -> read-only (n, n) mask, n the longest tk yet


def causal_mask(tq: int, tk: int, dtype) -> np.ndarray:
    """Additive mask for `tq` query rows that are the last of `tk` keys:
    `MASK_VALUE` where a key follows its query row, else 0 (a read-only view)."""
    dtype = np.dtype(dtype)
    table = _CAUSAL.get(dtype)
    if table is None or table.shape[0] < tk:
        table = _CAUSAL[dtype] = np.triu(np.full((tk, tk), MASK_VALUE, dtype), k=1)
        table.flags.writeable = False
    return table[tk - tq:tk, :tk]


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
        """Cast every parameter and its Adam moments, if any, to `dtype`, in place."""
        for _, param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)
            if param.adam_m is not None:
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


def _token_ids(ids, vocab_size: int) -> np.ndarray:
    """`ids` as a 1-D integer array, each id in `[0, vocab_size)`; it may be
    empty. Anything else is `VocabMismatch`: a float, bool or string id, a
    nested or ragged list, or an int beyond int64."""
    try:
        ids = np.asarray(ids)
    except ValueError as exc:  # a ragged list
        raise VocabMismatch(f"token ids must be a flat sequence of integers: {exc}") from exc
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise VocabMismatch(f"token ids must be a flat sequence of integers, got "
                            f"{ids.dtype} of shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise VocabMismatch(f"token id outside vocabulary of {vocab_size}")
    return ids


class Embedding(Module):
    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.weight = Parameter(rng.normal(0.0, 0.02, size=(vocab_size, dim)))

    def __call__(self, ids) -> Tensor:
        return take(self.weight, _token_ids(ids, self.weight.shape[0]))


class LayerNorm(Module):
    eps = 1e-5

    def __init__(self, dim: int):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


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

    def __call__(self, x: Tensor) -> Tensor:
        """Causal self-attention over the rows of `x`: each row attends to the
        rows up to itself."""
        mask = causal_mask(x.shape[0], x.shape[0], x.data.dtype) if x.shape[0] > 1 else None
        return self.wo(attention(self.wq(x), self.wk(x), self.wv(x), self.heads, mask))


class FeedForward(Module):
    """Position-wise dense -> ReLU -> dense."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(relu(self.fc1(x)))


def sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    """Deterministic sine/cosine position table, shape (length, dim)."""
    positions = np.arange(length)[:, None]
    div = np.exp(np.arange(0, dim, 2) * (-np.log(10000.0) / dim))
    table = np.zeros((length, dim))
    table[:, 0::2] = np.sin(positions * div)
    table[:, 1::2] = np.cos(positions * div[: dim // 2])
    return table
