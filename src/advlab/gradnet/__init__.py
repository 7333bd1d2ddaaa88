"""Minimal differentiable classifier: layers, backprop, training, storage."""

from .layers import (
    LayerSpec,
    conv,
    dense,
    dropout,
    flatten,
    maxpool,
    relu,
    sigmoid,
    softmax,
    softmax_with_temperature,
)
from .network import (
    ARCHITECTURES,
    Network,
    build,
    promote_to_softmax,
    propagate_shapes,
    reference_cnn_specs,
)
from .serialize import load_network, save_network
from .train import TrainConfig, evaluate, train

__all__ = [
    "ARCHITECTURES",
    "LayerSpec",
    "Network",
    "TrainConfig",
    "build",
    "conv",
    "dense",
    "dropout",
    "evaluate",
    "flatten",
    "load_network",
    "maxpool",
    "promote_to_softmax",
    "propagate_shapes",
    "reference_cnn_specs",
    "relu",
    "save_network",
    "sigmoid",
    "softmax",
    "softmax_with_temperature",
    "train",
]
