"""Central finite-difference verification of analytic gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class GradCheckReport:
    tolerance: float
    max_errors: dict[str, float] = field(default_factory=dict)

    @property
    def worst(self) -> float:
        return max(self.max_errors.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.worst < self.tolerance


def _rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def gradcheck(fn, leaves, tolerance: float = 1e-4,
              max_coords_per_block: int | None = None) -> GradCheckReport:
    """Compare analytic gradients of `fn` against central differences.

    `fn` is a zero-argument callable rebuilding the forward graph and
    returning a scalar Tensor. `leaves` is a list of (name, Tensor) whose
    data is perturbed in place. Every coordinate is checked unless
    `max_coords_per_block` caps large blocks (deterministic subsample).
    """
    h = 1e-5  # the central difference's half-width
    leaves = list(leaves)
    for _, leaf in leaves:
        leaf.grad = None
    out = fn()
    out.backward()
    analytic = {name: (leaf.grad.copy() if leaf.grad is not None else leaf.data * 0.0)
                for name, leaf in leaves}

    report = GradCheckReport(tolerance=tolerance)
    picker = np.random.default_rng(0)
    for name, leaf in leaves:
        worst = 0.0
        flat = leaf.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        if max_coords_per_block is not None and flat.size > max_coords_per_block:
            coords = picker.choice(flat.size, size=max_coords_per_block, replace=False)
        else:
            coords = range(flat.size)
        for i in coords:
            saved = flat[i]
            flat[i] = saved + h
            plus = fn().item()
            flat[i] = saved - h
            minus = fn().item()
            flat[i] = saved
            numeric = (plus - minus) / (2.0 * h)
            worst = max(worst, _rel_err(float(grad_flat[i]), numeric))
        report.max_errors[name] = worst
    for _, leaf in leaves:
        leaf.grad = None
    return report


__all__ = ["GradCheckReport", "gradcheck"]
