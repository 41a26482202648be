"""Numerical substrate: autodiff tensors, layers, Adam, gradient checks."""

from .gradcheck import GradCheckReport, gradcheck
from .layers import (BatchNorm, Conv2d, Embedding, FeedForward, LayerNorm, Linear,
                     Module, MultiHeadAttention, avg_pool2d, global_avg_pool,
                     sinusoidal_positions)
from .optim import Adam, Parameter
from .tensor import (Tensor, absolute, attention, concat, layer_norm, linear,
                     log_softmax, matmul, no_grad, relu, reshape, softmax, sqrt,
                     take, tensor_mean, tensor_sum, transpose)

__all__ = [
    "Adam", "BatchNorm", "Conv2d", "Embedding", "FeedForward", "GradCheckReport",
    "LayerNorm", "Linear", "Module", "MultiHeadAttention", "Parameter", "Tensor",
    "absolute", "attention", "avg_pool2d", "concat", "global_avg_pool",
    "gradcheck", "layer_norm", "linear", "log_softmax", "matmul", "no_grad", "relu",
    "reshape", "sinusoidal_positions", "softmax", "sqrt", "take", "tensor_mean",
    "tensor_sum", "transpose",
]
