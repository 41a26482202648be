"""Trainable parameters and the Adam update rule."""

from __future__ import annotations

import numpy as np

from ..errors import check_positive
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Parameter(Tensor):
    """A requires-grad tensor carrying its own Adam moment state, which
    `Adam.step` allocates when it first updates the parameter."""

    __slots__ = ("adam_m", "adam_v", "step_count")

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.adam_m = self.adam_v = None
        self.step_count = 0


class Adam:
    """Bias-corrected Adam over the (name, Parameter) pairs of `parameters()`."""

    def __init__(self, params, lr: float):
        check_positive("lr", lr)
        self.params = [p for _, p in params]
        self.lr = lr

    def step(self) -> None:
        """Update every parameter from its gradient (none counts as zero),
        then clear the gradient. Moments and weights change in place, in the
        operation order of `m = BETA1 * m + (1 - BETA1) * g` and
        `w -= lr * m_hat / (sqrt(v_hat) + EPS)`."""
        for param in self.params:
            grad = param.grad if param.grad is not None else np.zeros_like(param.data)
            param.step_count += 1
            t = param.step_count
            if param.adam_m is None:
                param.adam_m, param.adam_v = np.zeros_like(param.data), np.zeros_like(param.data)
            m, v = param.adam_m, param.adam_v
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            step = m / (1.0 - BETA1 ** t)
            step *= self.lr
            step /= np.sqrt(v / (1.0 - BETA2 ** t)) + EPS
            param.data -= step
            param.grad = None
