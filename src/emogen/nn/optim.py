"""Trainable parameters and the Adam update rule."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A requires-grad tensor carrying its own Adam moment state, which
    `Adam.step` allocates when it first updates the parameter."""

    __slots__ = ("adam_m", "adam_v", "step_count")

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.adam_m = self.adam_v = None
        self.step_count = 0


class Adam:
    """Bias-corrected Adam over a fixed parameter list, in a stable order."""

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = [p for _, p in params] if params and isinstance(params[0], tuple) else list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps

    def step(self) -> None:
        """Update every parameter from its gradient (none counts as zero),
        then clear the gradient. Moments and weights change in place, in the
        operation order of `m = beta1 * m + (1 - beta1) * g` and
        `w -= lr * m_hat / (sqrt(v_hat) + eps)`."""
        beta1, beta2 = self.beta1, self.beta2
        for param in self.params:
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            param.step_count += 1
            t = param.step_count
            if param.adam_m is None:
                param.adam_m, param.adam_v = np.zeros_like(param.data), np.zeros_like(param.data)
            m, v = param.adam_m, param.adam_v
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            step = m / (1.0 - beta1 ** t)
            step *= self.lr
            step /= np.sqrt(v / (1.0 - beta2 ** t)) + self.eps
            param.data -= step
            param.grad = None
