import pkgutil
import re
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import pytest

import emogen
from emogen.config import DataConfig, MetricConfig, ModelConfig, RunConfig, TrainConfig
from emogen.errors import ConfigError


DIRECT_TYPE_ERRORS = [
    (ModelConfig, "seed", 1.5), (ModelConfig, "model_dim", 16.0), (ModelConfig, "max_len", True),
    (TrainConfig, "epochs", 2.5), (TrainConfig, "batch_size", 2.5),
    (TrainConfig, "lr", float("nan")), (TrainConfig, "lr", "0.1"),
    (DataConfig, "manifest", None), (DataConfig, "dictionary", 3),
    (MetricConfig, "steps_per_beat", 4.0), (RunConfig, "train", {"epochs": 2}),
]


class TestTypeRules:
    def test_int_taken_as_float(self):
        cfg = RunConfig.from_dict({"train": {"lr": 1, "lambda_va": 0, "lambda_cc": 2}})
        assert type(cfg.train.lr) is float and cfg.train.lr == 1.0
        assert (cfg.train.lambda_va, cfg.train.lambda_cc) == (0.0, 2.0)
        assert type(cfg.train.lambda_va) is float

    @pytest.mark.parametrize("value", ["dict.csv", None])
    def test_string_or_null_where_default_is_none(self, value):
        cfg = RunConfig.from_dict({"data": {"dictionary": value, "va_predictor": value}})
        assert cfg.data == DataConfig(dictionary=value, va_predictor=value)

    @pytest.mark.parametrize("section", [
        {"model": {"seed": True}},           # bool is not an int
        {"train": {"lr": True}},             # nor a float
        {"train": {"batch_size": 2.0}},      # float is not an int
        {"data": {"dictionary": 3}},
        {"data": {"manifest": None}},        # null only where the default is null
        {"metrics": {"polyphony_denominator": 1}},
        {"train": {"lambda_va": "x"}},
        {"train": {"lr": 10 ** 400}},       # no float holds it
        {"train": {"loss_weights": {"lambda_va": 1.0}}},  # the weights are plain train keys
        {"model": {"n_layers": 3}},
        {"optimizer": {}},
        {"data": "pairs.json"},
    ])
    def test_rejected(self, section):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(section)

    @pytest.mark.parametrize("cls, key, value", DIRECT_TYPE_ERRORS,
                             ids=[f"{cls.__name__}.{key}={value!r}"
                                  for cls, key, value in DIRECT_TYPE_ERRORS])
    def test_direct_construction_rejected(self, cls, key, value):
        """The types JSON must have hold on direct construction too."""
        with pytest.raises(ConfigError, match=f"{key} must be"):
            cls(**{key: value})

    def test_direct_construction_stores_an_int_as_a_float(self):
        cfg = TrainConfig(lr=1, lambda_va=0)
        assert (type(cfg.lr), type(cfg.lambda_va)) == (float, float)

    @pytest.mark.parametrize("payload", [[], "x", 3, None])
    def test_top_level_must_be_object(self, payload):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(payload)
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"train": payload})

    def test_round_trip(self):
        cfg = RunConfig.from_dict({"model": {"model_dim": 16, "head_count": 2},
                                   "train": {"lambda_va": 0.5, "va_loss_mode": "soft"},
                                   "data": {"dictionary": "d.csv"},
                                   "metrics": {"steps_per_measure": 12}})
        assert RunConfig.from_dict(asdict(cfg)) == cfg
        assert asdict(cfg)["train"]["lambda_va"] == 0.5

    def test_echo_is_loadable(self, tmp_path):
        cfg = RunConfig.from_dict({"train": {"epochs": 3}})
        path = cfg.echo(tmp_path / "run")
        assert RunConfig.from_file(path) == cfg
        assert [p.name for p in path.parent.iterdir()] == ["run_config.json"]

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"data": {"split": "\xe9"}}')
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)


    @pytest.mark.parametrize("name", ["absent.json", "."], ids=["missing", "directory"])
    def test_unreadable_file(self, tmp_path, name):
        with pytest.raises(ConfigError, match="absent.json|Is a directory"):
            RunConfig.from_file(tmp_path / name)

    def test_file_nested_too_deeply(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ConfigError, match="cfg.json"):
            RunConfig.from_file(path)

    @pytest.mark.parametrize("context", ["fixed", "prefix"])
    def test_model_context(self, context):
        """Every model encodes [BOS]; the old `context` setting is an unknown key."""
        with pytest.raises(ConfigError, match="unknown keys in model: \\['context'\\]"):
            RunConfig.from_dict({"model": {"context": context}})
        assert "context" not in asdict(RunConfig())["model"]


# each int field of the config sections and the least value it takes
INT_MINIMUMS = [
    *[(ModelConfig, "model", name, minimum) for name, minimum in (
        ("encoder_blocks", 1), ("decoder_blocks", 0), ("model_dim", 1), ("head_count", 1),
        ("ff_dim", 1), ("max_len", 2), ("time_shift_bins", 1), ("velocity_bins", 1),
        ("steps_per_beat", 1), ("image_size", 1), ("va_hidden", 1), ("seed", 0))],
    (TrainConfig, "train", "epochs", 1), (TrainConfig, "train", "batch_size", 1),
    (TrainConfig, "train", "seed", 0),
    (MetricConfig, "metrics", "steps_per_beat", 1),
    (MetricConfig, "metrics", "steps_per_measure", 1),
]


class TestRanges:
    @pytest.mark.parametrize("kwargs", [
        {"model_dim": -16, "head_count": 2}, {"head_count": 0}, {"ff_dim": 0},
        {"encoder_blocks": 0}, {"decoder_blocks": -1}, {"time_shift_bins": 0},
        {"velocity_bins": 0}, {"steps_per_beat": 0}, {"image_size": 0},
        {"va_hidden": 0}, {"max_len": 1},
    ])
    def test_model_sizes(self, kwargs):
        with pytest.raises(ConfigError):
            ModelConfig(**kwargs)

    def test_model_edge_values_accepted(self):
        cfg = ModelConfig(decoder_blocks=0, seed=0, model_dim=1, head_count=1, ff_dim=1,
                          max_len=2, image_size=4)
        assert cfg.vocabulary().total_size > 0

    @pytest.mark.parametrize("cls, section, name, minimum", INT_MINIMUMS,
                             ids=[f"{section}.{name}" for _, section, name, _ in INT_MINIMUMS])
    def test_int_below_its_minimum_names_its_field(self, cls, section, name, minimum):
        message = f"{section}.{name} must be an int >= {minimum}, got {minimum - 1}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cls(**{name: minimum - 1})

    def test_every_int_field_has_a_minimum_case(self):
        assert {(cls, f.name) for cls in (ModelConfig, TrainConfig, MetricConfig)
                for f in fields(cls) if type(f.default) is int} == \
            {(cls, name) for cls, _, name, _ in INT_MINIMUMS}

    @pytest.mark.parametrize("kwargs", [{"steps_per_beat": 0}, {"steps_per_measure": -1},
                                        {"polyphony_denominator": "all"}])
    def test_metric_config(self, kwargs):
        with pytest.raises(ConfigError):
            MetricConfig(**kwargs)


@pytest.mark.parametrize("mode, lambda_va, on", [
    ("hard", 1e-5, True), ("soft", 0.5, True), ("off", 1.0, False),
    ("hard", 0.0, False), ("soft", 0.0, False),
])
def test_uses_va(mode, lambda_va, on):
    config = TrainConfig(va_loss_mode=mode, lambda_va=lambda_va)
    assert config.uses_va is on


# An import cycle only shows when a given module is imported first, so each
# module is imported alone in a fresh interpreter.
MODULES = sorted(info.name for info in pkgutil.walk_packages(emogen.__path__, "emogen."))


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    src = str(Path(emogen.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", f"import {module}"],
                            capture_output=True, text=True, cwd=src, timeout=120)
    assert result.returncode == 0, result.stderr
