"""Reverse-mode autodiff over dense numpy arrays.

Tensors wrap float arrays; operations record a backward closure so that
`Tensor.backward()` on a scalar, or `Tensor.backward(grad)` on any output,
accumulates gradients into every requires-grad leaf. All reductions use
numpy's deterministic row-major accumulation, so repeated runs are
bit-identical.

`backward` frees the graph as it walks it: once a node has passed its
gradient to its parents, it drops that gradient, its closure (and with it
the activations the closure saved) and its parents. Afterwards only leaves,
the tensors made with `requires_grad=True`, hold a `.grad`.

Every op keeps the dtype of its operands: a float array keeps its dtype,
a constant (Python scalar or array) combined with a Tensor takes that
Tensor's dtype, and anything else becomes `DEFAULT_DTYPE`.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ShapeMismatch

DEFAULT_DTYPE = np.float64

_grad_enabled = True


class no_grad:
    """Context manager disabling graph construction (inference paths)."""

    def __enter__(self):
        global _grad_enabled
        self._saved = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._saved
        return False


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        self.data = arr if arr.dtype.kind == "f" else arr.astype(DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    # --- construction helpers ---

    @staticmethod
    def _result(data: np.ndarray, parents: tuple["Tensor", ...], backward_fn) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
        if out.requires_grad:
            out._parents = parents
            out._backward_fn = backward_fn
        else:
            out._parents = ()
            out._backward_fn = None
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Never add in place: the first gradient is kept as given and may be
        # a view of an upstream gradient (or shared with a sibling operand).
        self.grad = grad if self.grad is None else self.grad + grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    # --- backprop driver ---

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Accumulate d(self)/d(leaf) into every requires-grad leaf, seeded
        with `grad` (self's shape), or with 1 when self is a scalar."""
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatch("backward() requires a scalar output or a seed gradient")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ShapeMismatch(f"seed gradient {np.shape(grad)} vs output {self.data.shape}")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self._accumulate(grad)
        while topo:  # popped, so each node is released once its closure has run
            node = topo.pop()
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node._parents = ()
                node._backward_fn = None
                node.grad = None

    # --- operators ---

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other, self))


def _as_tensor(value, like=None) -> Tensor:
    """`value` as a Tensor; a constant takes the dtype of the Tensor `like`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=like.data.dtype if isinstance(like, Tensor) else None)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# --- elementwise ---

def add(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.data.shape))

    return Tensor._result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a, b), _as_tensor(b, a)
    data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return Tensor._result(data, (a, b), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    data = np.maximum(a.data, 0.0)  # unlike a mask, lets NaN through

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * mask)

    return Tensor._result(data, (a,), backward)


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    sign = np.sign(a.data)
    data = np.abs(a.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * sign)

    return Tensor._result(data, (a,), backward)


# --- linear algebra and shape ---

def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(a.data.shape))

    return Tensor._result(data, (a,), backward)


def take(a, index) -> Tensor:
    """Indexing/gather; backward scatter-adds into the source."""
    a = _as_tensor(a)
    data = a.data[index]

    def backward(grad):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            if isinstance(index, slice):  # no repeats: `np.add.at`'s sums, without its cost
                full[index] += grad
            else:
                np.add.at(full, index, grad)
            a._accumulate(full)

    return Tensor._result(data, (a,), backward)


def concat(tensors) -> Tensor:
    """Join `tensors` along axis 0."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors])
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                tensor._accumulate(grad[start:stop])

    return Tensor._result(data, tuple(tensors), backward)


# --- reductions ---

def tensor_sum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis)

    def backward(grad):
        if a.requires_grad:
            g = grad if axis is None else np.expand_dims(grad, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return Tensor._result(np.asarray(data), (a,), backward)


def tensor_mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return tensor_sum(a, axis) * (1.0 / count)


# --- normalized exponentials ---

def softmax(a) -> Tensor:
    """Max-subtracted, numerically stable softmax along the last axis."""
    a = _as_tensor(a)
    data = np.exp(a.data - a.data.max(axis=-1, keepdims=True))
    data /= data.sum(axis=-1, keepdims=True)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(data * (grad - (grad * data).sum(axis=-1, keepdims=True)))

    return Tensor._result(data, (a,), backward)


def log_softmax(a) -> Tensor:
    """Log of softmax along the last axis by max-shifted log-sum-exp; finite for finite input."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    data = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad - np.exp(data) * grad.sum(axis=-1, keepdims=True))

    return Tensor._result(data, (a,), backward)


# --- fused layers: one node each; every forward repeats the numpy steps of
# the composite ops it replaces, in the same order, so outputs are unchanged.
# The forward of each is an array kernel of its own, which cached decoding
# also calls, so the two paths give the same bytes ---

def _rows(a: np.ndarray) -> np.ndarray:
    return a.reshape(-1, a.shape[-1])


def affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """`x @ weight + bias` on arrays, or `x @ weight` without a bias."""
    out = x @ weight
    if bias is not None and out.dtype is bias.dtype:
        out += bias  # in place on the fresh product
    elif bias is not None:  # numpy's promotion picks the dtype
        out = out + bias
    return out


def linear(x, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """`x @ weight + bias`, or `x @ weight` without a bias, for `x` of shape (..., in)."""
    x = _as_tensor(x)
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeMismatch(f"linear expects {weight.data.shape[0]} features, got {x.data.shape}")
    data = affine(x.data, weight.data, None if bias is None else bias.data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad @ weight.data.T)
        if weight.requires_grad:
            weight._accumulate(_rows(x.data).T @ _rows(grad))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_rows(grad).sum(axis=0))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._result(data, parents, backward)


def normalize(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm on arrays: `(out, normed, inv_std)`, where `normed` is `x`
    at zero mean and unit (biased) variance over the last axis and `out` is
    `normed * gamma + beta`. On one row (shape (d,) or (1, d), as a cached
    decoding step has) the mean, variance and `inv_std` are numpy scalars,
    not (1, 1) arrays: the same steps in the same order, so the same bytes,
    at less cost per call. Each constant is in `x.dtype`, so that numpy 1.x's
    value-based casting cannot make a float32 scalar float64 (only numpy 2
    is tested), and `np.sqrt` and `1 /` are spelled out: they are what
    `** 0.5` and `** -1.0` compute on arrays, but not on scalars."""
    t = x.dtype.type
    axis, keepdims = (None, False) if x.size == x.shape[-1] else (-1, True)
    scale = t(1.0 / x.shape[-1])  # the reductions are `ndarray.sum`'s ufunc, without its wrapper
    centered = x - np.add.reduce(x, axis=axis, keepdims=keepdims) * scale
    var = np.add.reduce(centered * centered, axis=axis, keepdims=keepdims) * scale
    inv_std = t(1.0) / np.sqrt(var + t(eps))
    normed = centered * inv_std
    return normed * gamma + beta, normed, inv_std


def layer_norm(x, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalise the last axis to zero mean and unit (biased) variance, then
    scale by `gamma` and shift by `beta`."""
    x = _as_tensor(x)
    if x.data.shape[-1] != gamma.data.shape[0]:
        raise ShapeMismatch(f"layer norm dim {gamma.data.shape[0]} vs input {x.data.shape}")
    data, normed, inv_std = normalize(x.data, gamma.data, beta.data, eps)
    scale = 1.0 / x.data.shape[-1]

    def backward(grad):
        if x.requires_grad:
            g = grad * gamma.data
            mean_g = g.sum(axis=-1, keepdims=True) * scale
            mean_gn = (g * normed).sum(axis=-1, keepdims=True) * scale
            x._accumulate(inv_std * (g - mean_g - normed * mean_gn))
        if gamma.requires_grad:
            gamma._accumulate(_rows(grad * normed).sum(axis=0))
        if beta.requires_grad:
            beta._accumulate(_rows(grad).sum(axis=0))

    return Tensor._result(data, (x, gamma, beta), backward)


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(T, H * head_dim) -> the (H, T, head_dim) view: the head layout that
    `attend_heads` reads."""
    return x.reshape(x.shape[0], heads, -1).transpose(1, 0, 2)


def _merge_heads(h: np.ndarray) -> np.ndarray:
    """(H, T, head_dim) -> (T, H * head_dim)."""
    return h.transpose(1, 0, 2).reshape(h.shape[1], -1)


def attend_heads(qh: np.ndarray, kt: np.ndarray, vh: np.ndarray,
                 mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention on head-major arrays: queries `qh`
    (H, Tq, head_dim), transposed keys `kt` (H, head_dim, Tk) and values `vh`
    (H, Tk, head_dim). Adds the additive `mask` (broadcast to (Tq, Tk)) to
    the scaled scores, softmaxes each row over the keys and returns the heads
    merged into a (Tq, H * head_dim) result, with the (H, Tq, Tk) weights."""
    weights = qh @ kt  # (H, Tq, Tk); scaled and softmaxed in place
    weights *= 1.0 / math.sqrt(qh.shape[-1])  # a Python float: float32 stays float32
    if mask is not None:
        weights += mask
    weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return _merge_heads(weights @ vh), weights


def attention(q, k, v, heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Multi-head attention as one graph node over the (T, d) projections
    `q`, `k`, `v`: `attend_heads` over their `split_heads` views."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    (_, d), tk = q.shape, k.shape[0]
    if heads < 1 or d % heads or k.shape != (tk, d) or v.shape != (tk, d):
        raise ShapeMismatch(f"attention over {heads} heads: q {q.shape}, "
                            f"k {k.shape}, v {v.shape}")
    qh, kh, vh = (split_heads(a.data, heads) for a in (q, k, v))
    data, weights = attend_heads(qh, kh.transpose(0, 2, 1), vh, mask)
    scale = 1.0 / math.sqrt(qh.shape[-1])

    def backward(grad):
        gh = split_heads(grad, heads)
        if v.requires_grad:
            v._accumulate(_merge_heads(weights.transpose(0, 2, 1) @ gh))
        if q.requires_grad or k.requires_grad:
            gs = gh @ vh.transpose(0, 2, 1)
            gs -= (gs * weights).sum(axis=-1, keepdims=True)
            gs *= weights
            gs *= scale
            if q.requires_grad:
                q._accumulate(_merge_heads(gs @ kh))
            if k.requires_grad:
                k._accumulate(_merge_heads(gs.transpose(0, 2, 1) @ qh))

    return Tensor._result(data, (q, k, v), backward)
