"""Trainable parameters and the Adam update rule."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A requires-grad tensor carrying its own Adam moment state."""

    __slots__ = ("adam_m", "adam_v", "step_count")

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)
        self.adam_m = np.zeros_like(self.data)
        self.adam_v = np.zeros_like(self.data)
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
        then clear the gradient."""
        beta1, beta2 = self.beta1, self.beta2
        for param in self.params:
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            param.step_count += 1
            t = param.step_count
            param.adam_m = beta1 * param.adam_m + (1.0 - beta1) * grad
            param.adam_v = beta2 * param.adam_v + (1.0 - beta2) * grad * grad
            m_hat = param.adam_m / (1.0 - beta1 ** t)
            v_hat = param.adam_v / (1.0 - beta2 ** t)
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            param.grad = None
