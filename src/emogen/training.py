"""Objective functions and training loops.

The combined objective is lambda_va * L_VA + lambda_cc * L_CC where L_CC
is natural-log categorical cross-entropy summed over non-PAD positions
and L_VA is the mean absolute error between predictor VA values for the
true and predicted token sequences. L_VA ships in two modes: "hard"
follows the literal argmax pipeline and carries no gradient; "soft"
relaxes the argmax to the expected token histogram so the gradient flows.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._files import write_csv
from .config import TrainConfig
from .errors import (CatalogTooSmall, ConfigError, NonFiniteError,
                     PredictorMissing, ShapeMismatch, check_int, check_positive)
from .model import FIXED_CONTEXT, EmoModel, VaPredictor, token_histogram
from .nn import (Adam, Tensor, absolute, log_softmax, no_grad, reshape, softmax,
                 take, tensor_mean, tensor_sum)
from .nn.layers import _token_ids
from .tokenizer import PAD


@dataclass
class TrainSample:
    """One image/MIDI pair: a 512-d feature (or raw image) plus token IDs."""

    image: object  # np.ndarray feature or image, or a path
    token_ids: Sequence[int]
    pair_id: str = ""


# --- losses ---

def cce_loss(logits: Tensor, target_ids, pad_mask: np.ndarray | None = None) -> Tensor:
    """Natural-log cross-entropy summed over positions; PAD positions skipped.

    `logits` is (N, C), `target_ids` holds N class ids, checked as
    `nn.layers._token_ids` checks ids, and `pad_mask` is True where a position counts.
    """
    target_ids = _token_ids(target_ids, logits.shape[-1])
    if logits.shape[:-1] != target_ids.shape:
        raise ShapeMismatch(f"logits {logits.shape} vs targets {target_ids.shape}")
    rows = np.arange(target_ids.size) if pad_mask is None else np.flatnonzero(pad_mask)
    return -tensor_sum(take(log_softmax(logits), (rows, target_ids[rows])))


def va_loss(true_ids, pred: Tensor, predictor: VaPredictor, mode: str = "hard"):
    """VA mean-absolute-error loss between true and predicted sequences.

    `pred` holds one row per predicted position: probabilities in soft mode;
    in hard mode only each row's argmax is read, so logits serve as well.
    Returns a float in hard mode (no gradient) and a scalar Tensor in soft
    mode (gradient flows through the expected token histogram).
    """
    if predictor is None:
        raise PredictorMissing("va_loss requires a pretrained predictor")
    vocab_size = predictor.vocab_size
    if pred.shape[-1] != vocab_size:
        raise ShapeMismatch(f"prediction rows of {pred.shape[-1]} "
                            f"!= predictor vocabulary {vocab_size}")
    dtype = pred.data.dtype  # histograms match it; so should `predictor`'s weights
    true_hist = token_histogram(true_ids, vocab_size)
    with no_grad():
        true_va = predictor(Tensor(true_hist[None, :], dtype=dtype)).data[0]

    if mode == "hard":
        pred_ids = np.argmax(pred.data, axis=-1)
        pred_hist = token_histogram(pred_ids, vocab_size)
        with no_grad():
            pred_va = predictor(Tensor(pred_hist[None, :], dtype=dtype)).data[0]
        return float(np.abs(true_va - pred_va).mean())
    if mode == "soft":
        expected_hist = tensor_mean(pred, axis=0)  # rows are distributions
        pred_va = predictor(reshape(expected_hist, (1, vocab_size)))
        return tensor_mean(absolute(pred_va - Tensor(true_va[None, :])))
    raise ConfigError(f"unknown va_loss mode {mode!r}")


def total_loss(cce: float, va: float, config: TrainConfig) -> float:
    """Weighted sum of the two objective terms."""
    return config.lambda_va * va + config.lambda_cc * cce


# --- VA-predictor pretraining ---

PREDICTOR_BATCH = 8
HOLDOUT_FRACTION = 0.2  # of the pieces, leaving at least 2 to train on


def pretrain_va_predictor(samples: Sequence[tuple[Sequence[int], tuple[float, float]]],
                          vocab_size: int, hidden: int = 64, epochs: int = 200,
                          lr: float = 1e-3, seed: int = 0) -> tuple[VaPredictor, dict]:
    """Fit the VA predictor on (token_ids, (valence, arousal)) samples.

    Minimizes MAE with Adam over batches of `PREDICTOR_BATCH`; returns the
    predictor and a report with train/holdout MAE. Deterministic under `seed`.
    """
    for name, value, minimum in (("epochs", epochs, 1), ("seed", seed, 0), ("hidden", hidden, 1)):
        check_int(name, value, minimum)
    check_positive("lr", lr)
    if len(samples) < 2:
        raise CatalogTooSmall("need at least 2 labeled pieces")
    rng = np.random.default_rng(seed)
    hists = np.stack([token_histogram(ids, vocab_size) for ids, _ in samples])
    labels = np.array([va for _, va in samples], dtype=np.float64)

    n_holdout = min(len(samples) - 2, int(round(HOLDOUT_FRACTION * len(samples))))
    order = rng.permutation(len(samples))
    hold_idx, train_idx = order[:n_holdout], order[n_holdout:]

    predictor = VaPredictor(vocab_size, hidden, np.random.default_rng(seed))
    optimizer = Adam(predictor.parameters(), lr=lr)

    def mae(idx: np.ndarray) -> float:
        with no_grad():
            out = predictor(Tensor(hists[idx])).data
        return float(np.abs(out - labels[idx]).mean())

    initial_mae = mae(train_idx)
    for epoch in range(1, epochs + 1):
        epoch_order = rng.permutation(train_idx)
        for start in range(0, len(epoch_order), PREDICTOR_BATCH):
            batch = epoch_order[start:start + PREDICTOR_BATCH]
            predictor.zero_grad()
            out = predictor(Tensor(hists[batch]))
            loss = tensor_mean(absolute(out - Tensor(labels[batch])))
            if not math.isfinite(loss.item()):
                raise NonFiniteError(f"epoch {epoch}, pieces {batch.tolist()}: "
                                     f"non-finite MAE {loss.item()}")
            loss.backward()
            optimizer.step()

    report = {"initial_train_mae": initial_mae, "train_mae": mae(train_idx),
              "holdout_mae": mae(hold_idx) if hold_idx.size else float("nan"),
              "n_train": int(train_idx.size), "n_holdout": int(hold_idx.size)}
    return predictor, report


# --- main training loop ---

@dataclass
class EpochStats:
    epoch: int
    l_cc: float
    l_va: float
    l_total: float


def fit(model: EmoModel, samples: Sequence[TrainSample], config: TrainConfig,
        predictor: VaPredictor | None = None,
        loss_csv: str | Path | None = None) -> list[EpochStats]:
    """Teacher-forced next-token training over image/MIDI pairs.

    The decoder is trained on prefix -> next-token targets. The encoder sees
    only [BOS], so it runs once per batch: every pair reads its output
    through one leaf, and the leaf's summed gradient goes back through the
    encoder once, after the batch's pairs. Gradients accumulate over each
    batch before one Adam step. Fully deterministic under config.seed.
    """
    if not samples:
        raise CatalogTooSmall("no training samples")
    mode = config.va_loss_mode
    if config.uses_va:
        if predictor is None:
            raise PredictorMissing("va_loss_mode requires pretrained predictor weights")
        # a copy in the model's dtype: a float64 predictor would upcast the
        # soft-mode backward pass, and the caller's predictor gains no gradients
        predictor = copy.deepcopy(predictor)
        predictor.cast(model.dtype)

    params = model.parameters()
    optimizer = Adam(params, lr=config.lr)
    rng = np.random.default_rng(config.seed)
    history: list[EpochStats] = []

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(samples))
        sum_cc = sum_va = sum_total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            model.zero_grad()
            context = model.encode_midi(FIXED_CONTEXT)
            shared = Tensor(context.data, requires_grad=True)
            for index in batch:
                sample = samples[index]
                ids = _token_ids(sample.token_ids, model.vocab.total_size)
                prefix, targets = ids[:-1], ids[1:]
                logits = model.decode_logits(model.memory(sample.image, shared), prefix)
                keep = targets != PAD
                cce = cce_loss(logits, targets, pad_mask=keep)
                objective = cce * config.lambda_cc
                va_value = 0.0
                if config.uses_va:  # the predicted piece, like the true one, skips PAD targets
                    rows = logits if keep.all() else take(logits, np.flatnonzero(keep))
                    if mode == "soft":
                        va_term = va_loss(targets[keep], softmax(rows), predictor, mode="soft")
                        objective = objective + va_term * config.lambda_va
                        va_value = va_term.item()
                    else:
                        va_value = va_loss(targets[keep], rows, predictor, mode="hard")
                cc_value = cce.item()
                if not math.isfinite(cc_value + va_value):
                    raise NonFiniteError(f"epoch {epoch}, pair {sample.pair_id or index}: "
                                         f"L_CC {cc_value}, L_VA {va_value}")
                objective.backward()
                sum_cc += cc_value
                sum_va += va_value
                sum_total += total_loss(cc_value, va_value, config)
            context.backward(shared.grad)
            optimizer.step()
        n = len(samples)
        history.append(EpochStats(epoch=epoch, l_cc=sum_cc / n, l_va=sum_va / n,
                                  l_total=sum_total / n))
    if loss_csv is not None:
        write_loss_csv(loss_csv, history)
    return history


def write_loss_csv(path: str | Path, history: Sequence[EpochStats]) -> None:
    write_csv(path, [["epoch", "l_cc", "l_va", "l_total"]] + [
        [row.epoch, repr(row.l_cc), repr(row.l_va), repr(row.l_total)] for row in history])
