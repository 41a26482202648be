"""A fixed reference kernel, timed between operations, that tracks the machine's speed.

The shared host this benchmark was sized on runs the same code up to 2x
slower for stretches of seconds to tens of minutes, and its two vCPUs
slow down independently of each other. No statistic of one run's own
timings removes slow stretches that last the whole run. The runner
therefore spends a fixed share of each run on this kernel, which never
calls emogen, and scales every time by how fast the kernel ran around it:

    calibrated seconds = measured seconds * REFERENCE_S / mean kernel seconds

so a figure reads as seconds on a machine that runs the kernel in
`REFERENCE_S`. A change to emogen moves the measured seconds and leaves
the kernel's alone. The kernel mixes the two kinds of work emogen does: a
pure-Python pass over bytes with tuples, a sort and a dict (midi_io,
tokenizer, metrics, pairing) and small float64 matmuls, softmaxes and
normalisations (nn, model, training). Its inputs are fixed, not seeded.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# the kernel's mean time on the 2-vCPU machine this was sized on, at its
# usual speed
REFERENCE_S = 0.0035
SHARE = 0.05  # kernel time kept at this share of operation time
BURST = 25  # kernel calls around each set-up

_rng = np.random.default_rng(0)
_BYTES = bytes(_rng.integers(0, 256, 4000, dtype=np.uint8))
_WEIGHTS = [_rng.normal(size=(64, 64)) * 0.1 for _ in range(4)]
_X = _rng.normal(size=(96, 64))


def kernel() -> int:
    events, t = [], 0
    for k in range(0, len(_BYTES) - 2, 3):
        t += _BYTES[k] & 15
        events.append((t, _BYTES[k + 1] & 127, _BYTES[k + 2]))
    events.sort()
    counts: dict[int, int] = {}
    for _, pitch, _ in events:
        counts[pitch] = counts.get(pitch, 0) + 1
    x = _X
    for _ in range(6):
        for w in _WEIGHTS:
            h = x @ w
            e = np.exp(h - h.max(axis=1, keepdims=True))
            x = e / e.sum(axis=1, keepdims=True)
            x = (x - x.mean(axis=1, keepdims=True)) / (x.std(axis=1, keepdims=True) + 1e-5)
    return len(counts) + int(x.shape[0])


class Calibrator:
    """Kernel times, each tagged with the operation it followed."""

    def __init__(self):
        self.calls: list[tuple[int, float]] = []
        self.total_s = 0.0

    def _call(self, tag: int) -> None:
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        self.calls.append((tag, seconds))
        self.total_s += seconds

    def keep_up(self, tag: int, busy_s: float) -> None:
        """Run the kernel until its total time is `SHARE` of `busy_s`.

        The collector stays off meanwhile, so the program's heap, which a
        collection would walk, does not slow the kernel.
        """
        gc.disable()
        try:
            while self.total_s < SHARE * busy_s:
                self._call(tag)
        finally:
            gc.enable()

    def burst(self, tag: int = -1) -> None:
        gc.disable()
        try:
            for _ in range(BURST):
                self._call(tag)
        finally:
            gc.enable()

    def scale(self) -> float:
        """REFERENCE_S over the mean kernel time of the whole run."""
        return REFERENCE_S / statistics.fmean(s for _, s in self.calls)

    def scale_around(self, tag: int) -> float:
        """REFERENCE_S over the mean kernel time right before and after operation `tag`.

        Falls back to the whole run's mean when neither neighbour ran the kernel.
        """
        near = [s for t, s in self.calls if t in (tag - 1, tag)]
        return REFERENCE_S / statistics.fmean(near) if near else self.scale()
