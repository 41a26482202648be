"""Numerical substrate: autodiff tensors, layers, Adam, gradient checks."""

from .gradcheck import GradCheckReport, gradcheck
from .layers import (Embedding, FeedForward, LayerNorm, Linear, Module, MultiHeadAttention,
                     sinusoidal_positions)
from .optim import Adam, Parameter
from .tensor import (Tensor, absolute, affine, attend_heads, attention, concat, layer_norm,
                     linear, log_softmax, no_grad, normalize, relu, reshape, softmax,
                     split_heads, take, tensor_mean, tensor_sum)

__all__ = [
    "Adam", "Embedding", "FeedForward", "GradCheckReport", "LayerNorm", "Linear", "Module",
    "MultiHeadAttention", "Parameter", "Tensor", "absolute", "affine", "attend_heads",
    "attention", "concat", "gradcheck", "layer_norm", "linear", "log_softmax", "no_grad",
    "normalize", "relu", "reshape", "sinusoidal_positions", "softmax", "split_heads", "take",
    "tensor_mean", "tensor_sum",
]
