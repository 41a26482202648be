"""Gradient-check battery over every differentiable block.

Used by the `gradcheck` CLI subcommand and the acceptance suite. Each
entry rebuilds a small forward graph and compares analytic gradients
against central finite differences in 64-bit precision.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .model import Block, EmoModel, VaPredictor
from .nn import (BatchNorm, Embedding, GradCheckReport, LayerNorm, Linear,
                 MultiHeadAttention, Tensor, gradcheck, softmax, tensor_sum)
from .training import cce_loss, va_loss
from .tokenizer import BOS, EOS


def _weighted_sum(out: Tensor, rng: np.random.Generator) -> Tensor:
    return tensor_sum(out * Tensor(rng.normal(size=out.shape)))


def standard_gradchecks(model_dim: int = 16, head_count: int = 2, ff_dim: int = 32,
                        seq_len: int = 5, tolerance: float = 1e-4,
                        max_coords_per_block: int | None = 200) -> dict[str, GradCheckReport]:
    """Run the full block battery; returns name -> report."""
    rng = np.random.default_rng(7)
    probe = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(seq_len, model_dim)), requires_grad=True)
    reports: dict[str, GradCheckReport] = {}

    def run(name, module_or_leaves, fn):
        leaves = (module_or_leaves.parameters() if hasattr(module_or_leaves, "parameters")
                  else module_or_leaves)
        reports[name] = gradcheck(fn, leaves + [("input", x)], tolerance=tolerance,
                                  max_coords_per_block=max_coords_per_block)

    linear = Linear(model_dim, model_dim, rng)
    run("linear", linear, lambda: _weighted_sum(linear(x), np.random.default_rng(1)))

    ids = probe.integers(0, 12, size=seq_len)
    embedding = Embedding(12, model_dim, rng)
    reports["embedding"] = gradcheck(
        lambda: _weighted_sum(embedding(ids), np.random.default_rng(2)),
        embedding.parameters(), tolerance=tolerance,
        max_coords_per_block=max_coords_per_block)

    norm = LayerNorm(model_dim)
    run("layer_norm", norm, lambda: _weighted_sum(norm(x), np.random.default_rng(3)))

    bnorm = BatchNorm(model_dim)
    run("batch_norm", bnorm,
        lambda: _weighted_sum(bnorm(x, train=True), np.random.default_rng(4)))

    mha = MultiHeadAttention(model_dim, head_count, rng)
    run("attention", mha,
        lambda: _weighted_sum(mha(x, x, x, causal=True), np.random.default_rng(5)))

    encoder = Block(model_dim, head_count, ff_dim, rng)
    run("encoder_block", encoder,
        lambda: _weighted_sum(encoder(x), np.random.default_rng(6)))

    decoder = Block(model_dim, head_count, ff_dim, rng)
    run("decoder_block", decoder,
        lambda: _weighted_sum(decoder(x, causal=True), np.random.default_rng(7)))

    # cross-entropy wrt logits
    num_classes = 7
    logits = Tensor(rng.normal(size=(seq_len, num_classes)), requires_grad=True)
    targets = probe.integers(0, num_classes, size=seq_len)
    reports["cce"] = gradcheck(
        lambda: cce_loss(logits, targets),
        [("logits", logits)], tolerance=tolerance,
        max_coords_per_block=max_coords_per_block)

    # soft VA loss wrt logits, through an eval-mode predictor
    vocab_size = 9
    predictor = VaPredictor(vocab_size, 8, rng)
    predictor.bn1.running_mean = rng.normal(size=8) * 0.1
    predictor.bn1.running_var = 1.0 + rng.uniform(size=8)
    predictor.bn2.running_var = 1.0 + rng.uniform(size=8)
    va_logits = Tensor(rng.normal(size=(seq_len, vocab_size)), requires_grad=True)
    true_ids = probe.integers(0, vocab_size, size=seq_len)
    reports["soft_va_loss"] = gradcheck(
        lambda: va_loss(true_ids, softmax(va_logits, axis=-1), predictor, mode="soft"),
        [("logits", va_logits)], tolerance=tolerance,
        max_coords_per_block=max_coords_per_block)

    return reports


def full_model_gradcheck(tolerance: float = 1e-4,
                         max_coords_per_block: int | None = 60) -> GradCheckReport:
    """Gradcheck the reduced end-to-end model: encoder + merge + decoder + CCE."""
    config = ModelConfig(encoder_blocks=1, decoder_blocks=1, model_dim=16,
                         head_count=2, ff_dim=24, max_len=16,
                         time_shift_bins=4, velocity_bins=2, seed=3, dtype="float64")
    model = EmoModel(config)
    rng = np.random.default_rng(13)
    feature = rng.normal(size=512)
    vocab = model.vocab
    body = [vocab.token_to_id(("VELOCITY", 0)), vocab.token_to_id(("NOTE_ON", 60)),
            vocab.token_to_id(("TIME_SHIFT", 2)), vocab.token_to_id(("NOTE_OFF", 60))]
    ids = np.array([BOS] + body + [EOS])

    def fn():
        logits = model.forward_logits(feature, ids, ids[:-1])
        return cce_loss(logits, ids[1:])

    return gradcheck(fn, model.parameters(), tolerance=tolerance,
                     max_coords_per_block=max_coords_per_block)
