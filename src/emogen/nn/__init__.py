"""Numerical substrate: autodiff tensors, layers, Adam, gradient checks."""

from .gradcheck import GradCheckReport, gradcheck
from .layers import (Conv2d, Embedding, FeedForward, LayerNorm, Linear,
                     Module, MultiHeadAttention, avg_pool2d, global_avg_pool,
                     sinusoidal_positions)
from .optim import Adam, Parameter
from .tensor import (Tensor, absolute, affine, attend_heads, attention, concat, layer_norm,
                     linear, log_softmax, matmul, no_grad, normalize, relu, reshape, softmax,
                     split_heads, take, tensor_mean, tensor_sum)

__all__ = [
    "Adam", "Conv2d", "Embedding", "FeedForward", "GradCheckReport",
    "LayerNorm", "Linear", "Module", "MultiHeadAttention", "Parameter", "Tensor",
    "absolute", "affine", "attend_heads", "attention", "avg_pool2d", "concat",
    "global_avg_pool", "gradcheck", "layer_norm", "linear", "log_softmax", "matmul", "no_grad",
    "normalize", "relu", "reshape", "sinusoidal_positions", "softmax", "split_heads", "take",
    "tensor_mean", "tensor_sum",
]
