import numpy as np
import pytest

from emogen.errors import ConfigError, ShapeMismatch, VocabMismatch
from emogen.model import EmoModel, VaPredictor
from emogen.nn import (Adam, Embedding, FeedForward,
                       LayerNorm, Linear, MultiHeadAttention, Parameter, Tensor,
                       attention, concat, gradcheck,
                       layer_norm, linear, log_softmax, no_grad, relu,
                       sinusoidal_positions, softmax, take, tensor_mean, tensor_sum)
from emogen.training import TrainConfig, fit

from test_fused import matmul
from test_model import small_config
from test_training import _samples


class TestTensorOps:
    def test_matmul_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert matmul(a, b).data.tolist() == [[17.0], [39.0]]

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward_from_a_seed_gradient(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        seed = np.array([[1.0, -1.0], [0.5, 2.0]])
        (x * x).backward(seed)
        assert np.array_equal(x.grad, 2.0 * x.data * seed)

    def test_softmax_example(self):
        out = softmax(Tensor([0.0, np.log(3.0)]))
        assert out.data == pytest.approx([0.25, 0.75])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        out = softmax(Tensor(rng.normal(size=(5, 7))))
        assert out.data.sum(axis=-1) == pytest.approx(np.ones(5))

    def test_softmax_shift_invariant(self):
        x = np.array([1.0, -2.0, 0.5])
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 100.0)).data
        assert a == pytest.approx(b, abs=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(8).normal(size=(4, 6))
        assert log_softmax(Tensor(x)).data == \
            pytest.approx(np.log(softmax(Tensor(x)).data), abs=1e-12)

    def test_softmax_and_log_softmax_are_single_nodes(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        for out in (softmax(x), log_softmax(x)):
            assert out._parents == (x,)

    def test_broadcast_add_backward(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        tensor_sum(a + b).backward()
        assert np.array_equal(a.grad, np.ones((3, 2)))
        assert np.array_equal(b.grad, np.full(2, 3.0))

    def test_take_backward_accumulates(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        out = take(a, np.array([1, 1, 3]))
        tensor_sum(out).backward()
        assert a.grad.tolist() == [0.0, 2.0, 0.0, 1.0]

    def test_concat_backward_splits(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = concat([a, b]) * Tensor(np.arange(5.0))
        tensor_sum(out).backward()
        assert a.grad.tolist() == [0.0, 1.0]
        assert b.grad.tolist() == [2.0, 3.0, 4.0]

    def test_relu_passes_nan_through(self):
        a = Tensor(np.array([np.nan, -1.0, 0.0, 2.0]), requires_grad=True)
        out = relu(a)
        assert np.isnan(out.data[0]) and np.array_equal(out.data[1:], [0.0, 0.0, 2.0])
        tensor_sum(out * Tensor(np.array([0.0, 1.0, 1.0, 1.0]))).backward()
        assert np.array_equal(a.grad, [0.0, 0.0, 0.0, 1.0])

    def test_no_grad_suppresses_graph(self):
        a = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = tensor_sum(a * a)
        assert not out.requires_grad
        out.backward()  # nothing to propagate: the graph was never built
        assert a.grad is None

    def test_mean_over_tuple_axes(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        assert tensor_mean(Tensor(x), axis=(0, 2)).data == pytest.approx(x.mean(axis=(0, 2)))


# --- reference: the backward walk that kept every node's gradient until it returned ---

def ref_backward(self, grad=None):
    if grad is None:
        if self.data.size != 1:
            raise ShapeMismatch("backward() requires a scalar output or a seed gradient")
        grad = np.ones_like(self.data)
    elif np.shape(grad) != self.data.shape:
        raise ShapeMismatch(f"seed gradient {np.shape(grad)} vs output {self.data.shape}")
    topo = []
    seen = set()
    stack = [(self, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    self._accumulate(grad)
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)
            node._parents = ()
            node._backward_fn = None


def _leaves(dtype):
    rng = np.random.default_rng(11)
    return [Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
            for shape in ((5, 4), (4, 4), (4,), (4,))]


def _graph(x, w, gamma, beta):
    """A scalar loss that reads `x` twice, and every node it made on the way."""
    nodes = [linear(x, w)]
    nodes.append(nodes[-1] + x)
    nodes.append(layer_norm(nodes[-1], gamma, beta, 1e-5))
    nodes.append(attention(nodes[-1], nodes[-1], nodes[-1], 2))
    nodes.append(log_softmax(nodes[-1]) * relu(nodes[2]))
    nodes.append(tensor_sum(nodes[-1]))
    return nodes[-1], nodes


class TestBackwardRelease:
    """After `backward`, only leaves keep `.grad`: each node drops its
    gradient, closure and parents once its gradient has gone to its parents."""

    def test_nodes_keep_no_gradient(self):
        leaves = _leaves(np.float64)
        loss, nodes = _graph(*leaves)
        loss.backward()
        assert all(node.grad is None and node._backward_fn is None and node._parents == ()
                   for node in nodes)
        assert all(leaf.grad is not None for leaf in leaves)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaf_gradients_match_the_retaining_walk(self, dtype, monkeypatch):
        ours, theirs = _leaves(dtype), _leaves(dtype)
        _graph(*ours)[0].backward()
        monkeypatch.setattr(Tensor, "backward", ref_backward)
        loss, nodes = _graph(*theirs)
        loss.backward()
        assert all(node.grad is not None for node in nodes)  # the reference kept them
        for a, b in zip(ours, theirs):
            assert a.grad.dtype == b.grad.dtype and a.grad.tobytes() == b.grad.tobytes()

    def test_second_graph_accumulates_into_the_leaves(self, monkeypatch):
        ours, theirs = _leaves(np.float64), _leaves(np.float64)
        for _ in range(2):
            _graph(*ours)[0].backward()
        monkeypatch.setattr(Tensor, "backward", ref_backward)
        for _ in range(2):
            _graph(*theirs)[0].backward()
        for a, b in zip(ours, theirs):
            assert a.grad.tobytes() == b.grad.tobytes()

    # `fit` seeds the encoder's backward with its shared-context leaf's gradient,
    # `context.backward(shared.grad)`; at full size the desk set pins the same
    # path against another tree (`runs/*/checkpoint.emc`, `loss.csv`, `grads.f8`)
    @pytest.mark.parametrize("mode", ["off", "hard", "soft"])
    def test_fit_trains_as_with_the_retaining_walk(self, mode, monkeypatch):
        def train():
            model = EmoModel(small_config())
            vocab = model.vocab.total_size
            predictor = VaPredictor(vocab, 8, np.random.default_rng(3))
            config = TrainConfig(lr=1e-2, epochs=2, batch_size=2, va_loss_mode=mode,
                                 lambda_va=0.5)
            history = fit(model, _samples(np.random.default_rng(0), n=4, vocab=vocab),
                          config, predictor=predictor)
            return history, [arr.tobytes() for _, p in model.parameters()
                             for arr in (p.data, p.adam_m, p.adam_v)]

        ours = train()
        monkeypatch.setattr(Tensor, "backward", ref_backward)
        assert train() == ours


class TestGradcheckHarness:
    def test_composite_function_passes(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

        def fn():
            return tensor_sum(softmax(matmul(a, a)) * relu(a))

        report = gradcheck(fn, [("a", a)])
        assert report.passed and report.worst < 1e-6

    def test_log_softmax_weighted_sum_passes(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(3, 4)))
        report = gradcheck(lambda: tensor_sum(log_softmax(a) * weights), [("a", a)])
        assert report.passed and report.worst < 1e-6

    def test_negative_control_detects_corruption(self):
        a = Tensor(np.array([0.3, -0.7, 1.1]), requires_grad=True)

        def fn():
            result = tensor_sum(a * a)
            inner = result._backward_fn

            def corrupted(grad):
                inner(grad * 2.0)  # deliberately doubles the true gradient

            if inner is not None:
                result._backward_fn = corrupted
            return result

        report = gradcheck(fn, [("a", a)])
        assert not report.passed
        assert report.max_errors["a"] >= report.tolerance

    def test_subsampling_is_deterministic(self):
        base = np.random.default_rng(5).normal(size=50)

        def run():
            a = Tensor(base.copy(), requires_grad=True)
            rep = gradcheck(lambda: tensor_sum(a * a * a), [("a", a)],
                            max_coords_per_block=10)
            return rep.max_errors["a"]

        assert run() == run()


class TestLayers:
    def test_linear_matches_numpy(self):
        rng = np.random.default_rng(6)
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        out = layer(Tensor(x))
        assert out.data == pytest.approx(x @ layer.weight.data + layer.bias.data)

    def test_embedding_rows(self):
        rng = np.random.default_rng(7)
        emb = Embedding(10, 4, rng)
        out = emb(np.array([2, 2, 5]))
        assert np.array_equal(out.data[0], out.data[1])
        assert np.array_equal(out.data[2], emb.weight.data[5])

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(8)
        out = LayerNorm(16)(Tensor(rng.normal(size=(4, 16)) * 3 + 5))
        assert out.data.mean(axis=-1) == pytest.approx(np.zeros(4), abs=1e-9)
        assert out.data.std(axis=-1) == pytest.approx(np.ones(4), abs=1e-3)

    def test_attention_rows_are_convex_combinations(self):
        rng = np.random.default_rng(10)
        mha = MultiHeadAttention(8, 2, rng)
        x = Tensor(rng.normal(size=(4, 8)))
        assert mha(x).shape == (4, 8)

    def test_attention_causal_first_position_fixed(self):
        rng = np.random.default_rng(11)
        mha = MultiHeadAttention(8, 2, rng)
        x = rng.normal(size=(4, 8))
        base = mha(Tensor(x)).data
        x2 = x.copy()
        x2[2] += 10.0  # later positions must not affect earlier outputs
        pert = mha(Tensor(x2)).data
        assert pert[:2] == pytest.approx(base[:2], abs=1e-12)
        assert not np.allclose(pert[2], base[2])

    def test_attention_and_relu_gradchecks(self):
        rng = np.random.default_rng(18)
        mha = MultiHeadAttention(8, 2, rng)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        weights = Tensor(rng.normal(size=(4, 8)))
        report = gradcheck(
            lambda: tensor_sum(relu(mha(x)) * weights),
            [("x", x)] + mha.parameters())
        assert report.passed and report.worst < 1e-4, report.max_errors

    def test_attention_single_token(self):
        rng = np.random.default_rng(13)
        mha = MultiHeadAttention(4, 2, rng)
        x = Tensor(rng.normal(size=(1, 4)))
        assert mha(x).shape == (1, 4)

    def test_attention_config_divisibility(self):
        mha = MultiHeadAttention(10, 3, np.random.default_rng(0))
        x = Tensor(np.ones((2, 10)))
        with pytest.raises(ShapeMismatch, match="3 heads"):
            mha(x)

    def test_sinusoidal_positions(self):
        table = sinusoidal_positions(10, 8)
        assert table.shape == (10, 8)
        assert table[0] == pytest.approx([0, 1] * 4)
        assert np.abs(table).max() <= 1.0

    def test_module_parameters_stable_order(self):
        rng = np.random.default_rng(15)
        ff = FeedForward(4, 8, rng)
        names = [name for name, _ in ff.parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_layer_gradchecks(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        ln = LayerNorm(4)
        report = gradcheck(lambda: tensor_sum(ln(x) * ln(x)),
                           [("x", x)] + ln.parameters())
        assert report.passed, report.max_errors


# each shape check of the layers, with the message it raises
SHAPE_ERRORS = {
    "backward_non_scalar": (lambda: Tensor(np.ones(3), requires_grad=True).backward(),
                            r"backward\(\) requires a scalar output"),
    "backward_seed_shape": (lambda: Tensor(np.ones(3), requires_grad=True).backward(np.ones(2)),
                            r"seed gradient \(2,\) vs output \(3,\)"),
}


@pytest.mark.parametrize("case", list(SHAPE_ERRORS))
def test_shape_errors_are_typed(case):
    call, message = SHAPE_ERRORS[case]
    with pytest.raises(ShapeMismatch, match=message):
        call()


# each was a ShapeMismatch, a row picked by truncation or a bare ValueError
@pytest.mark.parametrize("ids", [[2, 10], [-1], [1.7], [float("nan")], [True], ["x"], [[1]]],
                         ids=["above", "below", "float", "nan", "bool", "str", "nested"])
def test_embedding_ids_are_checked(ids):
    with pytest.raises(VocabMismatch, match="token id"):
        Embedding(10, 4, np.random.default_rng(0))(ids)


class TestAdam:
    def test_zero_grad_is_fixed_point(self):
        p = Parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        Adam([("p", p)], lr=0.1).step()
        assert p.data.tolist() == [1.0, -2.0]

    def test_first_step_is_signed_lr(self):
        p = Parameter(np.array([1.0, -2.0]))
        p.grad = np.array([0.3, -4.0])
        Adam([("p", p)], lr=0.1).step()
        assert p.data == pytest.approx([0.9, -1.9], abs=1e-6)

    def test_grad_cleared_after_step(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.array([1.0])
        Adam([("p", p)], lr=0.1).step()
        assert p.grad is None

    def test_deterministic_trajectory(self):
        def run():
            p = Parameter(np.array([0.5, -0.5]))
            opt = Adam([("p", p)], lr=0.05)
            for t in range(10):
                p.grad = np.array([np.sin(t + 1.0), np.cos(t + 1.0)])
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_quadratic_descent(self):
        target = np.array([2.0, -3.0])
        p = Parameter(np.zeros(2))
        opt = Adam([("p", p)], lr=0.1)
        for _ in range(200):
            x = Tensor(p.data, requires_grad=False)
            p.grad = 2.0 * (p.data - target)
            opt.step()
        assert p.data == pytest.approx(target, abs=1e-2)

    @pytest.mark.parametrize("lr", ["x", True, 0, -1.0, float("inf"), float("nan")],
                             ids=["str", "bool", "zero", "negative", "inf", "nan"])
    def test_bad_lr_is_typed(self, lr):
        """Each was accepted: inf stepped weights to -inf, NaN made NaN
        weights, -1.0 ascended and "x" failed untyped on the first step."""
        with pytest.raises(ConfigError, match="lr must be a finite number > 0"):
            Adam([("p", Parameter(np.zeros(2)))], lr=lr)

    def test_accepts_named_pairs(self):
        rng = np.random.default_rng(17)
        layer = Linear(2, 2, rng)
        opt = Adam(layer.parameters(), lr=0.01)
        out = tensor_sum(layer(Tensor(np.ones((1, 2)))))
        out.backward()
        before = layer.weight.data.copy()
        opt.step()
        assert not np.array_equal(before, layer.weight.data)
