"""The compute dtype: every op keeps its operands' dtype, a float32 model
yields no float64 anywhere in its graph, and float64 stays available for
gradient checks and for checkpoints written before the `dtype` knob."""

from dataclasses import asdict

import numpy as np
import pytest

from emogen.config import ModelConfig
from emogen.errors import ConfigError
from emogen.model import (IMAGE_FEATURE_DIM, EmoModel, VaPredictor, save_checkpoint,
                          write_feature_file)
from emogen.nn import (Tensor, absolute, attention, concat, layer_norm, linear,
                       log_softmax, no_grad, relu, reshape, softmax, sqrt, take,
                       tensor_mean, tensor_sum, transpose)
from emogen.nn.layers import MASK_VALUE
from emogen.tokenizer import BOS, EOS
from emogen.training import TrainConfig, TrainSample, fit

from test_model import small_config


def _leaf(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32),
                  requires_grad=True)


CAUSAL = np.triu(np.full((3, 3), MASK_VALUE), k=1)  # a float64 constant

# name -> op over float32 leaves a, b (3, 4), w (4, 4) and g (4,); constants
# (Python scalars, float64 arrays) must take the Tensor's dtype
OPS = {
    "add": lambda a, b, w, g: a + b,
    "add_scalar": lambda a, b, w, g: 2.0 + a,
    "mul": lambda a, b, w, g: a * b,
    "mul_scalar": lambda a, b, w, g: a * -1.0,
    "mul_float64_array": lambda a, b, w, g: a * np.arange(4.0),
    "neg": lambda a, b, w, g: -a,
    "sub": lambda a, b, w, g: a - b,
    "sub_scalar": lambda a, b, w, g: a - 1.0,
    "rsub_scalar": lambda a, b, w, g: 1.0 - a,
    "sub_float64_array": lambda a, b, w, g: a - np.ones((3, 4)),
    "div_scalar": lambda a, b, w, g: a / 3.0,
    "rdiv_scalar": lambda a, b, w, g: 3.0 / (a * a + 1.0),
    "power": lambda a, b, w, g: (a * a + 1.0) ** 1.5,
    "sqrt": lambda a, b, w, g: sqrt(a * a + 1.0),
    "relu": lambda a, b, w, g: relu(a),
    "absolute": lambda a, b, w, g: absolute(a),
    "matmul": lambda a, b, w, g: a @ w,
    "reshape": lambda a, b, w, g: reshape(a, (4, 3)),
    "transpose": lambda a, b, w, g: transpose(a),
    "take": lambda a, b, w, g: take(a, (np.array([0, 2]), np.array([1, 3]))),
    "concat": lambda a, b, w, g: concat([a, b], axis=0),
    "sum": lambda a, b, w, g: tensor_sum(a, axis=0),
    "mean": lambda a, b, w, g: tensor_mean(a),
    "softmax": lambda a, b, w, g: softmax(a, axis=-1),
    "log_softmax": lambda a, b, w, g: log_softmax(a, axis=-1),
    "linear": lambda a, b, w, g: linear(a, w, g),
    "linear_no_bias": lambda a, b, w, g: linear(a, w),
    "layer_norm": lambda a, b, w, g: layer_norm(a, g, g, 1e-5),
    "attention": lambda a, b, w, g: attention(a, b, b, 2),
    "attention_float64_mask": lambda a, b, w, g: attention(a, b, b, 2, CAUSAL),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_keeps_float32(name):
    leaves = [_leaf((3, 4), 0), _leaf((3, 4), 1), _leaf((4, 4), 2), _leaf((4,), 3)]
    out = OPS[name](*leaves)
    assert out.data.dtype == np.float32
    tensor_sum(out * np.random.default_rng(4).normal(size=out.shape)).backward()
    grads = [leaf.grad for leaf in leaves if leaf.grad is not None]
    assert grads and all(grad.dtype == np.float32 for grad in grads)


def test_tensor_keeps_float_arrays_and_defaults_the_rest_to_float64():
    assert Tensor(np.zeros(3, np.float32)).data.dtype == np.float32
    for data in ([1.0, 2.0], np.arange(3), 2.0, np.array([True])):
        assert Tensor(data).data.dtype == np.float64
    assert Tensor([1, 2], dtype=np.float32).data.dtype == np.float32


def test_config_dtype():
    assert ModelConfig().dtype == "float32"
    with pytest.raises(ConfigError):
        ModelConfig(dtype="float16")
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"dtype": 32})


# --- no float64 in a float32 model ---

@pytest.fixture
def float64_arrays(monkeypatch):
    """Every non-float32 array a graph node yields or a gradient carries."""
    seen = []
    result, accumulate = Tensor._result, Tensor._accumulate

    def checked_result(data, parents, backward_fn):
        if data.dtype != np.float32:
            seen.append(("node", data.dtype, data.shape))
        return result(data, parents, backward_fn)

    def checked_accumulate(self, grad):
        if grad.dtype != np.float32:
            seen.append(("grad", grad.dtype, grad.shape))
        accumulate(self, grad)

    monkeypatch.setattr(Tensor, "_result", staticmethod(checked_result))
    monkeypatch.setattr(Tensor, "_accumulate", checked_accumulate)
    return seen


def _samples(model):
    rng = np.random.default_rng(0)
    bodies = rng.integers(3, model.vocab.total_size, size=(2, 7))
    return [TrainSample(image=rng.normal(size=IMAGE_FEATURE_DIM),
                        token_ids=np.concatenate([[BOS], body, [EOS]]), pair_id=f"p{i}")
            for i, body in enumerate(bodies)]


@pytest.mark.parametrize("mode", ["off", "hard", "soft"])
def test_fit_stays_float32(float64_arrays, mode):
    model = EmoModel(small_config())
    predictor = VaPredictor(model.vocab.total_size, 8, np.random.default_rng(0))
    config = TrainConfig.from_dict({"lr": 1e-3, "epochs": 1, "batch_size": 2,
                                    "va_loss_mode": mode, "lambda_va": 0.5})
    fit(model, _samples(model), config, predictor=predictor)
    assert float64_arrays == []
    assert {arr.dtype for _, p in model.parameters()
            for arr in (p.data, p.adam_m, p.adam_v)} == {np.dtype(np.float32)}
    # the caller's predictor is neither cast nor given gradients
    assert all(p.data.dtype == np.float64 and p.grad is None for _, p in predictor.parameters())


@pytest.mark.parametrize("strategy", ["greedy", "temperature"])
def test_generate_stays_float32(float64_arrays, strategy):
    model = EmoModel(small_config())
    feature = np.random.default_rng(1).normal(size=IMAGE_FEATURE_DIM)
    model.generate(feature, max_len=12, strategy=strategy, temperature=1.3, seed=2)
    assert float64_arrays == []


@pytest.mark.parametrize("source", ["vector", "emf", "image"])
def test_forward_logits_stays_float32(float64_arrays, tmp_path, source):
    rng = np.random.default_rng(3)
    extractor = "tiny-cnn" if source == "image" else "precomputed"
    model = EmoModel(small_config(image_extractor=extractor, image_size=8))
    image = {"vector": rng.normal(size=IMAGE_FEATURE_DIM), "image": rng.random((3, 8, 8)),
             "emf": tmp_path / "f.emf"}[source]
    if source == "emf":
        write_feature_file(image, rng.normal(size=IMAGE_FEATURE_DIM))
    ids = np.array([BOS, 5, 9, 14, EOS])
    logits = model.forward_logits(image, ids, ids[:-1])
    tensor_sum(logits).backward()
    assert logits.data.dtype == np.float32 and float64_arrays == []


# --- float32 against float64 ---

def test_float32_weights_are_the_float64_draws_rounded():
    wide = EmoModel(small_config(dtype="float64"))
    narrow = EmoModel(small_config())
    for (_, p64), (_, p32) in zip(wide.parameters(), narrow.parameters()):
        assert np.array_equal(p32.data, p64.data.astype(np.float32))


@pytest.mark.parametrize("decoder_blocks", [0, 3])
def test_float32_logits_agree_with_float64(decoder_blocks):
    models = [EmoModel(small_config(decoder_blocks=decoder_blocks, dtype=dtype))
              for dtype in ("float64", "float32")]
    rng = np.random.default_rng(5)
    feature = rng.normal(size=IMAGE_FEATURE_DIM)
    ids = np.concatenate([[BOS], rng.integers(3, models[0].vocab.total_size, size=30)])
    with no_grad():
        wide, narrow = (m.forward_logits(feature, ids, ids).data for m in models)
        joint = models[1].merge(models[1].image_feature(feature), models[1].encode_midi(ids))
        last = models[1].decode_logits(joint, ids, last_only=True).data
    assert np.linalg.norm(narrow - wide) <= 1e-5 * np.linalg.norm(wide)
    assert np.linalg.norm(last[0] - narrow[-1]) <= 1e-5 * np.linalg.norm(narrow[-1])


def test_checkpoint_without_dtype_loads_as_float64(tmp_path):
    """Checkpoints written before the dtype knob hold float64 weights."""
    model = EmoModel(small_config(dtype="float64", seed=7))
    config = asdict(model.config)
    del config["dtype"]
    save_checkpoint(tmp_path / "old.emc", {"kind": "emomodel", "config": config,
                                           "vocab_hash": model.vocab.vocab_hash},
                    model.parameters())
    loaded = EmoModel.load(tmp_path / "old.emc")
    assert loaded.config.dtype == "float64"
    feature = np.random.default_rng(8).normal(size=IMAGE_FEATURE_DIM)
    ids = np.array([BOS, 7, 11, EOS])
    assert np.array_equal(loaded.forward_logits(feature, ids, ids[:-1]).data,
                          model.forward_logits(feature, ids, ids[:-1]).data)
