import numpy as np
import pytest

from emogen.errors import (CatalogTooSmall, ConfigError, NonFiniteError,
                           PredictorMissing, ShapeMismatch)
from emogen.model import (IMAGE_FEATURE_DIM, EmoModel, VaPredictor,
                          token_histogram)
from emogen.nn import Tensor, no_grad, softmax
from emogen.tokenizer import BOS, EOS, PAD
from emogen.training import (EpochStats, LossWeights, TrainConfig, TrainSample,
                             cce_loss, fit, pretrain_va_predictor,
                             total_loss, va_loss, write_loss_csv)

from test_model import small_config


def _samples(rng, n=2, length=8, vocab=20):
    out = []
    for i in range(n):
        body = rng.integers(3, vocab, size=length - 2)
        ids = np.concatenate([[BOS], body, [EOS]])
        out.append(TrainSample(image=rng.normal(size=IMAGE_FEATURE_DIM),
                               token_ids=ids, pair_id=f"p{i}"))
    return out


class TestConfigs:
    def test_default_weights(self):
        w = LossWeights()
        assert w.lambda_va == 1e-5 and w.lambda_cc == 1.0

    def test_both_zero_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(0.0, 0.0)

    def test_train_config_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.epochs) == (1e-5, 15)

    def test_from_dict_lambdas(self):
        cfg = TrainConfig.from_dict({"lr": 0.001, "lambda_va": 0.5, "lambda_cc": 2.0})
        assert cfg.loss_weights == LossWeights(0.5, 2.0)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"learning_rate": 0.001})

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(va_loss_mode="fuzzy")


class TestCceLoss:
    def test_perfect_prediction_near_zero(self):
        targets = np.array([0, 2, 1])
        logits = 50.0 * np.eye(3)[targets]
        assert cce_loss(Tensor(logits), targets).item() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_prediction(self):
        n, c = 4, 5
        logits = np.zeros((n, c))
        targets = np.zeros(n, dtype=int)
        assert cce_loss(Tensor(logits), targets).item() == pytest.approx(n * np.log(c))

    def test_monotone_in_target_probability(self):
        targets = np.array([0])
        losses = [cce_loss(Tensor(np.log([[p, 1 - p]])), targets).item()
                  for p in (0.2, 0.5, 0.9)]
        assert losses == sorted(losses, reverse=True)

    def test_pad_positions_skipped(self):
        targets = np.array([1, PAD])
        logits = np.log([[0.1, 0.8, 0.1], [0.5, 0.2, 0.3]])
        masked = cce_loss(Tensor(logits), targets, pad_mask=targets != PAD).item()
        assert masked == pytest.approx(-np.log(0.8))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cce_loss(Tensor(np.ones((2, 3))), np.array([0, 1, 2]))

    def test_gradient_direction(self):
        logits = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        cce_loss(logits, np.array([0])).backward()
        assert logits.grad[0, 0] < 0 < logits.grad[0, 1]

    def test_large_logit_gap_stays_finite(self):
        logits = Tensor(np.array([[0.0, 1000.0]]), requires_grad=True)
        loss = cce_loss(logits, np.array([0]))
        loss.backward()
        assert loss.item() == pytest.approx(1000.0)
        assert np.isfinite(logits.grad).all()
        assert logits.grad == pytest.approx(np.array([[-1.0, 1.0]]))


class TestTotalLoss:
    def test_hand_example(self):
        assert total_loss(3.0, 2.0, LossWeights()) == pytest.approx(3.00002)

    def test_linear_in_both_terms(self):
        w = LossWeights(0.25, 2.0)
        assert total_loss(1.0, 1.0, w) + total_loss(2.0, 3.0, w) == \
            pytest.approx(total_loss(3.0, 4.0, w))


class TestVaLoss:
    def _predictor(self, vocab=12):
        return VaPredictor(vocab, 8, np.random.default_rng(0))

    def test_hard_matches_manual_pipeline(self):
        predictor = self._predictor()
        true_ids = np.array([1, 3, 3, 5])
        probs = np.random.default_rng(1).dirichlet(np.ones(12), size=6)
        value = va_loss(true_ids, Tensor(probs), predictor, mode="hard")

        with no_grad():
            t = predictor(Tensor(token_histogram(true_ids, 12)[None]),
                          train=False).data[0]
            pred_ids = probs.argmax(axis=-1)
            p = predictor(Tensor(token_histogram(pred_ids, 12)[None]),
                          train=False).data[0]
        assert value == pytest.approx(float(np.abs(t - p).mean()), abs=1e-12)

    def test_hard_and_soft_agree_on_one_hot(self):
        predictor = self._predictor()
        true_ids = np.array([2, 4, 4, 7, 9])
        probs = np.eye(12)[true_ids]
        hard = va_loss(true_ids, Tensor(probs), predictor, mode="hard")
        soft = va_loss(true_ids, Tensor(probs), predictor, mode="soft")
        assert soft.item() == pytest.approx(hard, abs=1e-9)

    def test_soft_is_differentiable(self):
        predictor = self._predictor()
        logits = Tensor(np.random.default_rng(2).normal(size=(5, 12)),
                        requires_grad=True)
        probs = softmax(logits, axis=-1)
        va_loss(np.array([1, 2, 3]), probs, predictor, mode="soft").backward()
        assert logits.grad is not None and np.abs(logits.grad).sum() > 0

    def test_requires_predictor(self):
        with pytest.raises(PredictorMissing):
            va_loss(np.array([1]), Tensor(np.ones((1, 12)) / 12), None)

    def test_vocab_mismatch(self):
        with pytest.raises(ShapeMismatch):
            va_loss(np.array([1]), Tensor(np.ones((1, 9)) / 9), self._predictor(12))


class TestPretrain:
    def _labeled(self, rng, n=24, vocab=20):
        samples = []
        w = rng.normal(size=vocab)
        for _ in range(n):
            ids = rng.integers(3, vocab, size=12)
            hist = token_histogram(ids, vocab)
            valence = 5.0 + 3.0 * float(hist @ w)
            samples.append((ids, (np.clip(valence, 1, 9), 5.0)))
        return samples

    def test_descent_and_report(self, rng):
        samples = self._labeled(rng)
        predictor, report = pretrain_va_predictor(samples, vocab_size=20,
                                                  hidden=16, epochs=50, seed=0)
        assert report["train_mae"] < report["initial_train_mae"]
        assert report["n_train"] + report["n_holdout"] == len(samples)
        assert np.isfinite(report["holdout_mae"])

    def test_deterministic(self, rng):
        samples = self._labeled(rng)
        _, a = pretrain_va_predictor(samples, 20, hidden=16, epochs=10, seed=3)
        _, b = pretrain_va_predictor(samples, 20, hidden=16, epochs=10, seed=3)
        assert a == b

    def test_too_few_samples(self):
        with pytest.raises(CatalogTooSmall):
            pretrain_va_predictor([(np.array([1]), (5.0, 5.0))], 20)

    def test_non_finite_mae_raises(self, rng):
        samples = self._labeled(rng)
        samples = [(ids, (np.nan, arousal)) for ids, (_, arousal) in samples]
        with pytest.raises(NonFiniteError, match="epoch 1"):
            pretrain_va_predictor(samples, 20, hidden=16, epochs=2, seed=0)


class TestFit:
    def _setup(self, seed=0, **cfg_overrides):
        model = EmoModel(small_config(model_dim=16, ff_dim=24))
        rng = np.random.default_rng(seed)
        samples = _samples(rng, n=2, vocab=model.vocab.total_size)
        defaults = dict(lr=1e-3, epochs=3, batch_size=2, seed=1,
                        va_loss_mode="off")
        defaults.update(cfg_overrides)
        return model, samples, TrainConfig.from_dict(defaults)

    def test_loss_decreases(self):
        model, samples, config = self._setup(epochs=8)
        history = fit(model, samples, config)
        assert history[-1].l_cc < history[0].l_cc

    def test_deterministic_same_seed(self, tmp_path):
        outputs = []
        for run in range(2):
            model, samples, config = self._setup(epochs=2)
            csv_path = tmp_path / f"loss{run}.csv"
            ckpt = tmp_path / f"model{run}.emc"
            fit(model, samples, config, loss_csv=csv_path)
            model.save(ckpt)
            outputs.append((csv_path.read_bytes(), ckpt.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_va_off_reports_zero_column(self, tmp_path):
        model, samples, config = self._setup()
        history = fit(model, samples, config)
        assert all(row.l_va == 0.0 for row in history)
        assert all(row.l_total == pytest.approx(row.l_cc) for row in history)

    def test_lambda_zero_matches_mode_off_bitwise(self, tmp_path):
        checkpoints = []
        for overrides in ({"va_loss_mode": "off"},
                          {"va_loss_mode": "hard", "lambda_va": 0.0}):
            model, samples, config = self._setup(epochs=2, **overrides)
            predictor = VaPredictor(model.vocab.total_size, 8,
                                    np.random.default_rng(0))
            fit(model, samples, config, predictor=predictor)
            path = tmp_path / f"m{len(checkpoints)}.emc"
            model.save(path)
            checkpoints.append(path.read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_hard_mode_records_va_without_gradient(self):
        model, samples, config = self._setup(epochs=1, va_loss_mode="hard")
        predictor = VaPredictor(model.vocab.total_size, 8, np.random.default_rng(0))
        history = fit(model, samples, config, predictor=predictor)
        assert history[0].l_va > 0.0
        assert history[0].l_total == pytest.approx(
            total_loss(history[0].l_cc, history[0].l_va, config.loss_weights))

    def test_soft_mode_runs(self):
        model, samples, config = self._setup(epochs=1, va_loss_mode="soft")
        predictor = VaPredictor(model.vocab.total_size, 8, np.random.default_rng(0))
        history = fit(model, samples, config, predictor=predictor)
        assert history[0].l_va > 0.0

    def test_missing_predictor(self):
        model, samples, config = self._setup(va_loss_mode="hard")
        with pytest.raises(PredictorMissing):
            fit(model, samples, config)

    def test_empty_samples(self):
        model, _, config = self._setup()
        with pytest.raises(CatalogTooSmall):
            fit(model, [], config)

    @pytest.mark.parametrize("mode", ["off", "soft"])
    def test_non_finite_loss_raises_before_step(self, mode):
        model, samples, config = self._setup(epochs=1, va_loss_mode=mode)
        predictor = VaPredictor(model.vocab.total_size, 8, np.random.default_rng(0))
        model.out_proj.bias.data[3] = np.nan
        before = [p.data.copy() for _, p in model.parameters()]
        with pytest.raises(NonFiniteError, match=r"epoch 1, pair p[01]"):
            fit(model, samples, config, predictor=predictor)
        assert all(np.array_equal(p.data, old, equal_nan=True)
                   for (_, p), old in zip(model.parameters(), before))

    def test_loss_csv_format(self, tmp_path):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [EpochStats(1, 0.5, 0.25, 0.5000025)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,l_cc,l_va,l_total"
        assert lines[1].split(",") == ["1", "0.5", "0.25", "0.5000025"]
