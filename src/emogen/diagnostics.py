"""Gradient-check battery over every differentiable block.

The gradient checks are used by the `gradcheck` CLI subcommand and the
acceptance suite. Each entry rebuilds a small forward graph and compares
analytic gradients against central finite differences in 64-bit precision.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .model import Block, EmoModel, VaPredictor
from .nn import (Embedding, GradCheckReport, LayerNorm, Linear, MultiHeadAttention, Tensor,
                 gradcheck, softmax, tensor_sum)
from .training import cce_loss, va_loss
from .tokenizer import BOS, EOS


def _weighted_sum(out: Tensor, seed: int) -> Tensor:
    return tensor_sum(out * Tensor(np.random.default_rng(seed).normal(size=out.shape)))


def standard_gradchecks(tolerance: float = 1e-4) -> dict[str, GradCheckReport]:
    """Gradcheck every block at 200 coordinates per leaf; returns name -> report."""
    dim, heads, seq_len, classes, vocab_size = 16, 2, 5, 7, 9
    rng = np.random.default_rng(7)
    probe = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(seq_len, dim)), requires_grad=True)
    linear = Linear(dim, dim, rng)
    ids = probe.integers(0, 12, size=seq_len)
    embedding = Embedding(12, dim, rng)
    norm = LayerNorm(dim)
    mha = MultiHeadAttention(dim, heads, rng)
    decoder = Block(dim, heads, 32, rng)
    logits = Tensor(rng.normal(size=(seq_len, classes)), requires_grad=True)
    targets = probe.integers(0, classes, size=seq_len)
    predictor = VaPredictor(vocab_size, 8, rng)
    va_logits = Tensor(rng.normal(size=(seq_len, vocab_size)), requires_grad=True)
    true_ids = probe.integers(0, vocab_size, size=seq_len)

    def on_input(module):
        return module.parameters() + [("input", x)]

    table = {
        "linear": (lambda: _weighted_sum(linear(x), 1), on_input(linear)),
        "embedding": (lambda: _weighted_sum(embedding(ids), 2), embedding.parameters()),
        "layer_norm": (lambda: _weighted_sum(norm(x), 3), on_input(norm)),
        "attention": (lambda: _weighted_sum(mha(x), 5), on_input(mha)),
        "decoder_block": (lambda: _weighted_sum(decoder(x), 7), on_input(decoder)),
        "cce": (lambda: cce_loss(logits, targets), [("logits", logits)]),
        "soft_va_loss": (lambda: va_loss(true_ids, softmax(va_logits), predictor,
                                         mode="soft"), [("logits", va_logits)]),
    }
    return {name: gradcheck(fn, leaves, tolerance=tolerance, max_coords_per_block=200)
            for name, (fn, leaves) in table.items()}


def full_model_gradcheck(tolerance: float = 1e-4) -> GradCheckReport:
    """Gradcheck encoder + memory + decoder + CCE of a reduced model, 60 coordinates per block."""
    config = ModelConfig(encoder_blocks=1, decoder_blocks=1, model_dim=16,
                         head_count=2, ff_dim=24, max_len=16, time_shift_bins=4,
                         velocity_bins=2, seed=3, dtype="float64")
    model = EmoModel(config)
    feature = np.random.default_rng(13).normal(size=512)
    vocab = model.vocab  # VELOCITY bin 0, NOTE_ON 60, TIME_SHIFT 2, NOTE_OFF 60
    body = [vocab.velocity_base, vocab.note_on_base + 60, vocab.time_shift_base + 1,
            vocab.note_off_base + 60]
    ids = np.array([BOS] + body + [EOS])
    return gradcheck(lambda: cce_loss(model.decode_logits(model.memory(feature), ids[:-1]),
                                      ids[1:]),
                     model.parameters(), tolerance=tolerance, max_coords_per_block=60)
