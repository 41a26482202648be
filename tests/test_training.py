import numpy as np
import pytest

from emogen.config import RunConfig
from emogen.errors import (CatalogTooSmall, ConfigError, NonFiniteError,
                           PredictorMissing, ShapeMismatch, VocabMismatch)
from emogen.model import (IMAGE_FEATURE_DIM, EmoModel, VaPredictor,
                          token_histogram)
from emogen.nn import Tensor, no_grad, softmax
from emogen.tokenizer import BOS, EOS, PAD
from emogen.training import (EpochStats, TrainConfig, TrainSample,
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
        w = TrainConfig()
        assert w.lambda_va == 1e-5 and w.lambda_cc == 1.0

    def test_both_zero_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lambda_va=0.0, lambda_cc=0.0)

    def test_train_config_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.epochs) == (1e-5, 15)

    def test_from_dict_lambdas(self):
        cfg = RunConfig.from_dict({"train": {"lr": 0.001, "lambda_va": 0.5,
                                             "lambda_cc": 2.0}}).train
        assert (cfg.lambda_va, cfg.lambda_cc) == (0.5, 2.0)

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"train": {"learning_rate": 0.001}})

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

    # each was truncated to an int (the first gave 3.2189 as a loss) or indexed past the row
    @pytest.mark.parametrize("targets", [[1.7, 3.2], np.array([0.0, 4.0]), [True, False],
                                         [0, 5], [-1, 0]], ids=["float", "float-array", "bool",
                                                                "beyond-vocab", "negative"])
    def test_targets_are_checked_ids(self, targets):
        with pytest.raises(VocabMismatch):
            cce_loss(Tensor(np.zeros((2, 5))), targets)

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
        assert total_loss(3.0, 2.0, TrainConfig()) == pytest.approx(3.00002)

    def test_linear_in_both_terms(self):
        w = TrainConfig(lambda_va=0.25, lambda_cc=2.0)
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
            t = predictor(Tensor(token_histogram(true_ids, 12)[None])).data[0]
            pred_ids = probs.argmax(axis=-1)
            p = predictor(Tensor(token_histogram(pred_ids, 12)[None])).data[0]
        assert value == pytest.approx(float(np.abs(t - p).mean()), abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_hard_reads_logits_as_their_softmax(self, dtype):
        predictor = self._predictor()
        predictor.cast(dtype)
        true_ids = np.array([1, 3, 3, 5])
        for seed in range(20):
            logits = Tensor(np.random.default_rng(seed).normal(0, 3, size=(9, 12)), dtype=dtype)
            assert va_loss(true_ids, logits, predictor, mode="hard") == \
                va_loss(true_ids, softmax(logits), predictor, mode="hard")

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
        probs = softmax(logits)
        va_loss(np.array([1, 2, 3]), probs, predictor, mode="soft").backward()
        assert logits.grad is not None and np.abs(logits.grad).sum() > 0

    def test_requires_predictor(self):
        with pytest.raises(PredictorMissing):
            va_loss(np.array([1]), Tensor(np.ones((1, 12)) / 12), None)

    def test_vocab_mismatch(self):
        with pytest.raises(ShapeMismatch):
            va_loss(np.array([1]), Tensor(np.ones((1, 9)) / 9), self._predictor(12))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown va_loss mode 'median'"):
            va_loss(np.array([1]), Tensor(np.ones((1, 12)) / 12), self._predictor(), "median")


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

    def test_one_row_batch_takes_a_step(self, rng):
        """11 pieces hold out 2 and train on 9: a batch of 8, then one row,
        and each batch is one Adam step."""
        predictor, report = pretrain_va_predictor(self._labeled(rng, n=11), 20, hidden=16,
                                                  epochs=3)
        assert (report["n_train"], report["n_holdout"]) == (9, 2)
        assert {p.step_count for _, p in predictor.parameters()} == {6}

    def test_too_few_samples(self):
        with pytest.raises(CatalogTooSmall):
            pretrain_va_predictor([(np.array([1]), (5.0, 5.0))], 20)

    # lr: "x" failed as a bare TypeError, True was taken, and inf gave NaN weights
    @pytest.mark.parametrize("key, value", [("epochs", 1.5), ("epochs", True), ("seed", 1.5),
                                            ("hidden", 2.5), ("hidden", 0), ("lr", "x"),
                                            ("lr", True), ("lr", float("inf")), ("lr", 0.0)])
    def test_bad_arguments(self, rng, key, value):
        rule = "a finite number > 0" if key == "lr" else "an int"
        with pytest.raises(ConfigError, match=f"{key} must be {rule}"):
            pretrain_va_predictor(self._labeled(rng), 20, **{key: value})

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
        return model, samples, RunConfig.from_dict({"train": defaults}).train

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

    def test_encoder_runs_once_per_batch(self, monkeypatch):
        model = EmoModel(small_config())
        samples = _samples(np.random.default_rng(0), n=6, vocab=model.vocab.total_size)
        config = TrainConfig(lr=1e-3, epochs=2, batch_size=2, va_loss_mode="off")
        calls = []
        encode = EmoModel.encode_midi

        def counted(self, ids):
            calls.append(len(ids))
            return encode(self, ids)

        monkeypatch.setattr(EmoModel, "encode_midi", counted)
        fit(model, samples, config)
        assert calls == [1] * 6  # 2 epochs x 3 batches, each encoding [BOS] alone

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
            total_loss(history[0].l_cc, history[0].l_va, config))

    def test_soft_mode_runs(self):
        model, samples, config = self._setup(epochs=1, va_loss_mode="soft")
        predictor = VaPredictor(model.vocab.total_size, 8, np.random.default_rng(0))
        history = fit(model, samples, config, predictor=predictor)
        assert history[0].l_va > 0.0

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_va_term_skips_pad_positions(self, mode):
        """The predicted piece is read at the non-PAD targets only, as the true
        piece is; counting the PAD positions gives another L_VA."""
        model, samples, config = self._setup(epochs=1, va_loss_mode=mode, lambda_va=0.5)
        samples[1].token_ids = np.concatenate([samples[1].token_ids, [PAD] * 5])
        predictor = VaPredictor(model.vocab.total_size, 8, np.random.default_rng(0))
        expected, every_row = [], []
        with no_grad():
            for sample in samples:
                ids = np.asarray(sample.token_ids)
                keep = ids[1:] != PAD
                probs = softmax(model.decode_logits(model.memory(sample.image), ids[:-1]))
                for rows, out in ((probs.data[keep], expected), (probs.data, every_row)):
                    value = va_loss(ids[1:][keep], Tensor(rows), predictor, mode=mode)
                    out.append(value if mode == "hard" else value.item())
        history = fit(model, samples, config, predictor=predictor)
        assert history[0].l_va == pytest.approx(np.mean(expected), rel=1e-5)
        assert np.mean(every_row) != pytest.approx(np.mean(expected), rel=1e-3)

    def test_missing_predictor(self):
        model, samples, config = self._setup(va_loss_mode="hard")
        with pytest.raises(PredictorMissing):
            fit(model, samples, config)

    def test_empty_samples(self):
        model, _, config = self._setup()
        with pytest.raises(CatalogTooSmall):
            fit(model, [], config)

    def test_float_ids_are_vocab_mismatch(self):
        """They were truncated: [BOS, 5.9, 7.5, EOS] trained as [BOS, 5, 7, EOS]."""
        model, samples, config = self._setup()
        bad = TrainSample(image=samples[0].image, token_ids=[BOS, 5.9, 7.5, EOS])
        before = [param.data.copy() for _, param in model.parameters()]
        with pytest.raises(VocabMismatch, match="flat sequence of integers"):
            fit(model, [bad], config)
        assert all(np.array_equal(param.data, old)
                   for (_, param), old in zip(model.parameters(), before))

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
        assert path.read_bytes().count(b"\r\n") == 2  # the csv module's default dialect

    def test_interrupted_csv_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "loss.csv"
        write_loss_csv(path, [EpochStats(1, 0.5, 0.25, 0.5000025)])
        before = path.read_bytes()

        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr("emogen._files.os.replace", interrupted)
        with pytest.raises(OSError):
            write_loss_csv(path, [EpochStats(1, 0.7, 0.0, 0.7), EpochStats(2, 0.6, 0.0, 0.6)])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["loss.csv"]
