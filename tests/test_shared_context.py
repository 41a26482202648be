"""`fit` encodes [BOS] once per batch and sends the batch's summed gradient
back through the encoder once. The per-pair path it replaced, which ran the
encoder forward and backward for every pair, is kept here as the reference.

Backpropagation is linear in its incoming gradient, so the two differ only
in the order of rounding, and only in the encoder's blocks and in the
embedding it shares with the decoder."""

import copy

import numpy as np
import pytest

from emogen import training
from emogen.config import ModelConfig
from emogen.model import IMAGE_FEATURE_DIM, EmoModel, VaPredictor
from emogen.nn import softmax, take
from emogen.tokenizer import BOS, EOS, PAD
from emogen.training import TrainConfig, TrainSample, cce_loss, fit, va_loss


# --- reference: `fit`'s batch loop with per-pair encoding ---

def ref_batch_gradients(model, samples, batch, config, predictor=None):
    mode = config.va_loss_mode
    model.zero_grad()
    for index in batch:
        sample = samples[index]
        ids = np.asarray(sample.token_ids, dtype=np.int64)
        prefix, targets = ids[:-1], ids[1:]
        logits = model.decode_logits(model.memory(sample.image), prefix)
        keep = targets != PAD
        cce = cce_loss(logits, targets, pad_mask=keep)
        objective = cce * config.lambda_cc
        if config.uses_va:
            rows = logits if keep.all() else take(logits, np.flatnonzero(keep))
            if mode == "soft":
                va_term = va_loss(targets[keep], softmax(rows), predictor, mode="soft")
                objective = objective + va_term * config.lambda_va
        objective.backward()
    return {name: param.grad.copy() for name, param in model.parameters()}


def _pairs(vocab_size, lengths=(7, 30, 12, 55, 3), pad=4):
    """Pieces of different lengths; the last ends in PAD positions."""
    rng = np.random.default_rng(7)
    out = []
    for i, length in enumerate(lengths):
        ids = [BOS, *rng.integers(3, vocab_size, size=length - 2).tolist(), EOS]
        if i == len(lengths) - 1:
            ids += [PAD] * pad
        out.append(TrainSample(image=rng.normal(size=IMAGE_FEATURE_DIM),
                               token_ids=ids, pair_id=f"p{i}"))
    return out


def _fit_gradients(model, samples, config, predictor, monkeypatch):
    """The gradients `fit` hands to its one Adam step."""
    seen = []

    class Recording(training.Adam):
        def step(self):
            seen.append({name: param.grad.copy() for name, param in model.parameters()})
            super().step()

    monkeypatch.setattr(training, "Adam", Recording)
    fit(model, samples, config, predictor=predictor)
    assert len(seen) == 1
    return seen[0]


SHAPES = {
    "default": {},
    "2+2": {"encoder_blocks": 2, "decoder_blocks": 2, "max_len": 64},
    "no-decoder-blocks": {"decoder_blocks": 0, "max_len": 64},
}
BOUNDS = {"float64": 1e-12, "float32": 1e-5}
REBATCHED = ("encoder_stack.", "embedding.weight")  # gradients that are summed in a new order


@pytest.mark.parametrize("dtype", list(BOUNDS))
@pytest.mark.parametrize("shape, mode", [("default", "off"), ("2+2", "off"),
                                         ("no-decoder-blocks", "off"), ("2+2", "soft")])
def test_batch_gradients_match_per_pair_encoding(shape, mode, dtype, monkeypatch):
    model_cfg = ModelConfig(**dict(SHAPES[shape], dtype=dtype))
    config = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=3, va_loss_mode=mode,
                         lambda_va=0.5 if mode == "soft" else 1e-5)
    vocab_size = model_cfg.vocabulary().total_size
    samples = _pairs(vocab_size)
    predictor = VaPredictor(vocab_size, 8, np.random.default_rng(1)) if mode == "soft" else None

    reference_model = EmoModel(model_cfg)
    ref_predictor = None
    if predictor is not None:  # as `fit` does: a copy in the model's dtype
        ref_predictor = copy.deepcopy(predictor)
        ref_predictor.cast(reference_model.dtype)
    batch = np.random.default_rng(config.seed).permutation(len(samples))
    expected = ref_batch_gradients(reference_model, samples, batch, config, ref_predictor)
    got = _fit_gradients(EmoModel(model_cfg), samples, config, predictor, monkeypatch)

    assert set(got) == set(expected)
    for name, grad in got.items():
        assert grad.dtype == np.dtype(dtype)
        if name.startswith(REBATCHED):
            # relative L2 gap; the encoder's exactly-zero `wq`/`wk` gradients stay zero
            gap = np.linalg.norm(grad - expected[name])
            assert gap <= BOUNDS[dtype] * np.linalg.norm(expected[name]), name
        else:
            assert np.array_equal(grad, expected[name]), name
