"""Run configuration: one JSON file covering every module knob.

Every section is read by `_parse`, which rejects unknown keys. Each class's
`__post_init__` checks the types of its values and the minimum of each int
(`_check_fields`), then their other ranges, so direct construction is checked
by the same rules. Every command echoes its effective configuration into the
output directory so a run is reconstructible from its artifacts alone.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from functools import lru_cache
from pathlib import Path

from ._files import write_atomic
from .errors import ConfigError, check_int, check_positive
from .tokenizer import Vocabulary

# one shared Vocabulary per layout: its velocity tables are then built once,
# not once per MIDI file that `data.read_midi_ids` encodes
_vocabulary = lru_cache(maxsize=8)(Vocabulary)


def read_json(path: str | Path):
    """The JSON value in the file at `path`; failing to read it is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    # OSError: unreadable file; ValueError: bad JSON or UTF-8; RecursionError: too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse(cls, data, where: str):
    """Build `cls` from the JSON object `data`: unknown keys are rejected and a
    field whose default is a config is a nested section; `cls` checks the values."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    return cls(**{key: _parse(type(defaults[key]), value, key)
                  if is_dataclass(defaults[key]) else value
                  for key, value in data.items()})


# the least value of an int field of any section; every other int field's is 1
INT_MINIMUM = {"decoder_blocks": 0, "max_len": 2, "seed": 0}


def _check_fields(config, where: str) -> None:
    """ConfigError unless each field of `config` has its default's type, except
    that a string is taken where the default is None and an int within float
    range, stored as a float, where it is a float (a bool is never an int);
    a float must be finite and an int at least its `INT_MINIMUM`."""
    for f in fields(config):
        value, default = getattr(config, f.name), f.default
        if type(default) is float and type(value) is int and abs(value) <= sys.float_info.max:
            value = float(value)
            object.__setattr__(config, f.name, value)  # the dataclass is frozen
        if type(value) is not type(default) and not (default is None and type(value) is str):
            kind = "str or null" if default is None else type(default).__name__
            raise ConfigError(f"{where}.{f.name} must be {kind}, got {value!r}")
        if type(value) is float and not math.isfinite(value):  # json reads NaN, Infinity
            raise ConfigError(f"{where}.{f.name} must be finite, got {value!r}")
        if type(value) is int:
            check_int(f"{where}.{f.name}", value, INT_MINIMUM.get(f.name, 1))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and vocabulary knobs recorded in every checkpoint."""

    encoder_blocks: int = 3
    decoder_blocks: int = 3
    model_dim: int = 128
    head_count: int = 4
    ff_dim: int = 256
    max_len: int = 256
    time_shift_bins: int = 100
    velocity_bins: int = 32
    steps_per_beat: int = 4
    image_extractor: str = "precomputed"  # or "tiny-cnn"
    image_size: int = 32
    va_hidden: int = 64
    seed: int = 0
    dtype: str = "float32"  # or "float64"; a checkpoint without it is float64

    def __post_init__(self):
        _check_fields(self, "model")
        if self.image_extractor not in ("precomputed", "tiny-cnn"):
            raise ConfigError(f"unknown image_extractor {self.image_extractor!r}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        if self.image_size % 4 != 0:
            raise ConfigError("image_size must be divisible by 4 (two 2x2 pools)")
        if self.model_dim % self.head_count != 0:
            raise ConfigError(f"model_dim {self.model_dim} not divisible by "
                              f"{self.head_count} heads")

    def vocabulary(self) -> Vocabulary:
        return _vocabulary(self.time_shift_bins, self.velocity_bins)

    @classmethod
    def from_dict(cls, data) -> "ModelConfig":
        return _parse(cls, data, "model")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-5
    epochs: int = 15
    batch_size: int = 1
    seed: int = 0
    va_loss_mode: str = "hard"  # hard | soft | off
    lambda_va: float = 1e-5
    lambda_cc: float = 1.0

    def __post_init__(self):
        _check_fields(self, "train")
        check_positive("train.lr", self.lr)
        if self.va_loss_mode not in ("hard", "soft", "off"):
            raise ConfigError(f"unknown va_loss_mode {self.va_loss_mode!r}")
        if self.lambda_va < 0 or self.lambda_cc < 0:
            raise ConfigError("loss weights must be non-negative")
        if self.lambda_va == 0 and self.lambda_cc == 0:
            raise ConfigError("loss weights must not both be zero")

    @property
    def uses_va(self) -> bool:
        """Whether the VA term is computed (mode not `off` and `lambda_va` > 0)."""
        return self.va_loss_mode != "off" and self.lambda_va > 0


@dataclass(frozen=True)
class DataConfig:
    manifest: str = ""
    midi_catalog: str = ""
    image_catalog: str = ""
    dictionary: str | None = None
    va_predictor: str | None = None
    split: str = "train"

    def __post_init__(self):
        _check_fields(self, "data")


@dataclass(frozen=True)
class MetricConfig:
    steps_per_beat: int = 4
    steps_per_measure: int = 16
    polyphony_denominator: str = "sounding"

    def __post_init__(self):
        _check_fields(self, "metrics")
        if self.polyphony_denominator not in ("sounding", "total"):
            raise ConfigError(
                f"polyphony_denominator must be 'sounding' or 'total', "
                f"got {self.polyphony_denominator!r}")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    data: DataConfig = DataConfig()
    metrics: MetricConfig = MetricConfig()

    def __post_init__(self):
        _check_fields(self, "config")

    @classmethod
    def from_dict(cls, data) -> "RunConfig":
        return _parse(cls, data, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(read_json(path))

    def echo(self, out_dir: str | Path, name: str = "run_config.json") -> Path:
        path = Path(out_dir) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(asdict(self), indent=1, sort_keys=True) + "\n"
        write_atomic(path, [text.encode()])
        return path
