"""Reverse-mode autodiff over dense numpy arrays.

Tensors wrap float arrays; operations record a backward closure so that
`Tensor.backward()` on a scalar accumulates gradients into every
requires-grad leaf. All reductions use numpy's deterministic row-major
accumulation, so repeated runs are bit-identical.
"""

from __future__ import annotations

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
        arr = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.data = arr
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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # --- backprop driver ---

    def backward(self) -> None:
        if self.data.size != 1:
            raise ShapeMismatch("backward() requires a scalar output")
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
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
                node._parents = ()
                node._backward_fn = None

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
        return add(self, -_as_tensor(other))

    def __rsub__(self, other):
        return add(_as_tensor(other), -self)

    def __truediv__(self, other):
        other = _as_tensor(other)
        return mul(self, power(other, -1.0))

    def __rtruediv__(self, other):
        return mul(_as_tensor(other), power(self, -1.0))

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __getitem__(self, index):
        return take(self, index)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes or None)

    @property
    def T(self):
        return transpose(self, None)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return tensor_mean(self, axis, keepdims)


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


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
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad, b.data.shape))

    return Tensor._result(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(grad):
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

    return Tensor._result(data, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    a = _as_tensor(a)
    data = a.data ** exponent

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad * exponent * a.data ** (exponent - 1.0))

    return Tensor._result(data, (a,), backward)


def sqrt(a) -> Tensor:
    return power(a, 0.5)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0
    data = np.where(mask, a.data, 0.0)

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

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
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


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    data = a.data.reshape(shape)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad.reshape(a.data.shape))

    return Tensor._result(data, (a,), backward)


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    data = np.transpose(a.data, axes)
    inverse = None if axes is None else np.argsort(axes)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.transpose(grad, inverse))

    return Tensor._result(data, (a,), backward)


def take(a, index) -> Tensor:
    """Indexing/gather; backward scatter-adds into the source."""
    a = _as_tensor(a)
    data = a.data[index]

    def backward(grad):
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, index, grad)
            a._accumulate(full)

    return Tensor._result(data, (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._result(data, tuple(tensors), backward)


# --- reductions ---

def tensor_sum(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(grad):
        if a.requires_grad:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return Tensor._result(np.asarray(data), (a,), backward)


def tensor_mean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))
    return tensor_sum(a, axis, keepdims) * (1.0 / count)


# --- normalized exponentials ---

def softmax(a, axis: int = -1) -> Tensor:
    """Max-subtracted, numerically stable softmax along `axis`."""
    a = _as_tensor(a)
    data = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    data /= data.sum(axis=axis, keepdims=True)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(data * (grad - (grad * data).sum(axis=axis, keepdims=True)))

    return Tensor._result(data, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    """Log of softmax via max-shifted log-sum-exp; finite for any finite input."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    data = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def backward(grad):
        if a.requires_grad:
            a._accumulate(grad - np.exp(data) * grad.sum(axis=axis, keepdims=True))

    return Tensor._result(data, (a,), backward)
