"""Objective functions and training loops.

The combined objective is lambda_va * L_VA + lambda_cc * L_CC where L_CC
is natural-log categorical cross-entropy summed over non-PAD positions
and L_VA is the mean absolute error between predictor VA values for the
true and predicted token sequences. L_VA ships in two modes: "hard"
follows the literal argmax pipeline and carries no gradient; "soft"
relaxes the argmax to the expected token histogram so the gradient flows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (CatalogTooSmall, ConfigError, NonFiniteError,
                     PredictorMissing, ShapeMismatch)
from .model import EmoModel, VaPredictor, token_histogram
from .nn import (Adam, Tensor, absolute, log_softmax, no_grad, reshape, softmax,
                 take, tensor_mean, tensor_sum)
from .tokenizer import PAD


@dataclass(frozen=True)
class LossWeights:
    lambda_va: float = 1e-5
    lambda_cc: float = 1.0

    def __post_init__(self):
        if self.lambda_va < 0 or self.lambda_cc < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.lambda_va == 0 and self.lambda_cc == 0:
            raise ConfigError("loss weights must not both be zero")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-5
    epochs: int = 15
    batch_size: int = 1
    seed: int = 0
    va_loss_mode: str = "hard"  # hard | soft | off
    loss_weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.va_loss_mode not in ("hard", "soft", "off"):
            raise ConfigError(f"unknown va_loss_mode {self.va_loss_mode!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        weights = LossWeights(lambda_va=data.pop("lambda_va", 1e-5),
                              lambda_cc=data.pop("lambda_cc", 1.0))
        known = {f.name for f in fields(cls)} - {"loss_weights"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown train config keys: {sorted(unknown)}")
        return cls(loss_weights=weights, **data)


@dataclass
class TrainSample:
    """One image/MIDI pair: a 512-d feature (or raw image) plus token IDs."""

    image: object  # np.ndarray feature or image, or a path
    token_ids: Sequence[int]
    pair_id: str = ""


# --- losses ---

def cce_loss(logits: Tensor, target_ids, pad_mask: np.ndarray | None = None) -> Tensor:
    """Natural-log cross-entropy summed over positions; PAD positions skipped.

    `logits` is (N, C), `target_ids` holds N class ids and `pad_mask` is
    True where a position counts.
    """
    target_ids = np.asarray(target_ids, dtype=np.int64)
    if logits.shape[:-1] != target_ids.shape:
        raise ShapeMismatch(f"logits {logits.shape} vs targets {target_ids.shape}")
    rows = np.arange(target_ids.size) if pad_mask is None else np.flatnonzero(pad_mask)
    return -tensor_sum(take(log_softmax(logits, axis=-1), (rows, target_ids[rows])))


def va_loss(true_ids, pred_probs: Tensor, predictor: VaPredictor,
            mode: str = "hard"):
    """VA mean-absolute-error loss between true and predicted sequences.

    Returns a float in hard mode (no gradient) and a scalar Tensor in soft
    mode (gradient flows through the expected token histogram).
    """
    if predictor is None:
        raise PredictorMissing("va_loss requires a pretrained predictor")
    vocab_size = predictor.vocab_size
    if pred_probs.shape[-1] != vocab_size:
        raise ShapeMismatch(f"probability rows of {pred_probs.shape[-1]} "
                            f"!= predictor vocabulary {vocab_size}")
    true_hist = token_histogram(true_ids, vocab_size)
    with no_grad():
        true_va = predictor(Tensor(true_hist[None, :]), train=False).data[0]

    if mode == "hard":
        pred_ids = np.argmax(pred_probs.data, axis=-1)
        pred_hist = token_histogram(pred_ids, vocab_size)
        with no_grad():
            pred_va = predictor(Tensor(pred_hist[None, :]), train=False).data[0]
        return float(np.abs(true_va - pred_va).mean())
    if mode == "soft":
        expected_hist = tensor_mean(pred_probs, axis=0)  # rows are distributions
        pred_va = predictor(reshape(expected_hist, (1, vocab_size)), train=False)
        return tensor_mean(absolute(pred_va - Tensor(true_va[None, :])))
    raise ConfigError(f"unknown va_loss mode {mode!r}")


def total_loss(cce: float, va: float, weights: LossWeights) -> float:
    """Weighted sum of the two objective terms."""
    return weights.lambda_va * va + weights.lambda_cc * cce


# --- VA-predictor pretraining ---

def pretrain_va_predictor(samples: Sequence[tuple[Sequence[int], tuple[float, float]]],
                          vocab_size: int, hidden: int = 64, epochs: int = 200,
                          lr: float = 1e-3, batch_size: int = 8, seed: int = 0,
                          holdout_fraction: float = 0.2) -> tuple[VaPredictor, dict]:
    """Fit the VA predictor on (token_ids, (valence, arousal)) samples.

    Minimizes MAE with Adam; returns the predictor and a report with
    train/holdout MAE. Deterministic under `seed`.
    """
    if len(samples) < 2:
        raise CatalogTooSmall("need at least 2 labeled pieces")
    rng = np.random.default_rng(seed)
    hists = np.stack([token_histogram(ids, vocab_size) for ids, _ in samples])
    labels = np.array([va for _, va in samples], dtype=np.float64)

    n_holdout = min(len(samples) - 2, int(round(holdout_fraction * len(samples))))
    order = rng.permutation(len(samples))
    hold_idx, train_idx = order[:n_holdout], order[n_holdout:]
    if train_idx.size < 2:
        raise CatalogTooSmall("fewer than 2 training pieces after holdout split")

    predictor = VaPredictor(vocab_size, hidden, np.random.default_rng(seed))
    optimizer = Adam(predictor.parameters(), lr=lr)

    def mae(idx: np.ndarray) -> float:
        with no_grad():
            out = predictor(Tensor(hists[idx]), train=False).data
        return float(np.abs(out - labels[idx]).mean())

    initial_mae = mae(train_idx)
    for epoch in range(1, epochs + 1):
        epoch_order = rng.permutation(train_idx)
        for start in range(0, len(epoch_order), batch_size):
            batch = epoch_order[start:start + batch_size]
            if batch.size < 2:  # train-mode batch norm needs >= 2 rows
                continue
            predictor.zero_grad()
            out = predictor(Tensor(hists[batch]), train=True)
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

    Per pair the encoder sees the full true token sequence, the decoder is
    trained on prefix -> next-token targets. Gradients accumulate over each
    batch before one Adam step. Fully deterministic under config.seed.
    """
    if not samples:
        raise CatalogTooSmall("no training samples")
    mode = config.va_loss_mode
    weights = config.loss_weights
    use_va = mode != "off" and weights.lambda_va > 0.0
    if use_va and predictor is None:
        raise PredictorMissing("va_loss_mode requires pretrained predictor weights")

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
            for index in batch:
                sample = samples[index]
                ids = np.asarray(sample.token_ids, dtype=np.int64)
                prefix, targets = ids[:-1], ids[1:]
                logits = model.forward_logits(sample.image, ids, prefix)
                keep = targets != PAD
                cce = cce_loss(logits, targets, pad_mask=keep)
                objective = cce * weights.lambda_cc
                va_value = 0.0
                if use_va:
                    probs = softmax(logits, axis=-1)
                    if mode == "soft":
                        va_term = va_loss(targets[keep], probs, predictor, mode="soft")
                        objective = objective + va_term * weights.lambda_va
                        va_value = va_term.item()
                    else:
                        va_value = va_loss(targets[keep], probs, predictor, mode="hard")
                cc_value = cce.item()
                if not math.isfinite(cc_value + va_value):
                    raise NonFiniteError(f"epoch {epoch}, pair {sample.pair_id or index}: "
                                         f"L_CC {cc_value}, L_VA {va_value}")
                objective.backward()
                sum_cc += cc_value
                sum_va += va_value
                sum_total += total_loss(cc_value, va_value, weights)
            optimizer.step()
        n = len(samples)
        history.append(EpochStats(epoch=epoch, l_cc=sum_cc / n, l_va=sum_va / n,
                                  l_total=sum_total / n))
    if loss_csv is not None:
        write_loss_csv(loss_csv, history)
    return history


def write_loss_csv(path: str | Path, history: Sequence[EpochStats]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "l_cc", "l_va", "l_total"])
        for row in history:
            writer.writerow([row.epoch, repr(row.l_cc), repr(row.l_va), repr(row.l_total)])
