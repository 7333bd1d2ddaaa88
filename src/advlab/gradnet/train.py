"""Plain SGD training with seeded shuffling and per-epoch history."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import EmptyDatasetError
from .network import Network


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 0
    stop_accuracy: float | None = None  # early-stop once train accuracy reaches this

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.stop_accuracy is not None and not np.isfinite(self.stop_accuracy):
            raise ValueError(f"stop_accuracy must be finite when given, got {self.stop_accuracy}")


def train(
    net: Network, dataset: tuple[np.ndarray, np.ndarray], cfg: TrainConfig, inputs: Callable[[int], np.ndarray] | None = None
):
    """SGD-train the network in place; returns (net, history).

    Each epoch is one pass of mini-batch SGD over a shuffle of the rows,
    with dropout on in the parameter gradients. When given, `inputs(epoch)`
    returns the images to train on in that epoch, in the row order of
    `dataset`. Deterministic for a fixed config seed: the same shuffles,
    the same dropout draws, the same parameters. History records per-epoch
    mean batch loss and accuracy on that epoch's images (dropout off).
    """
    xs, ys = dataset
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys)
    n = xs.shape[0]
    if n == 0:
        raise EmptyDatasetError("training set is empty")

    shuffle_rng = np.random.default_rng(cfg.seed)
    history = {"loss": [], "accuracy": []}
    for epoch in range(cfg.epochs):
        if inputs is not None:
            xs = inputs(epoch)
        order = shuffle_rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            take = order[start : start + cfg.batch_size]
            loss, grads = net.param_gradients(xs[take], ys[take], train=True)
            losses.append(loss)
            for layer_params, layer_grads in zip(net.params, grads):
                for name, g in layer_grads.items():
                    layer_params[name] -= cfg.learning_rate * g
        history["loss"].append(float(np.mean(losses)))
        history["accuracy"].append(evaluate(net, xs, ys)[1])
        if cfg.stop_accuracy is not None and history["accuracy"][-1] >= cfg.stop_accuracy:
            break
    return net, history


def evaluate(net: Network, xs: np.ndarray, ys) -> tuple[float, float]:
    """(mean loss, accuracy) over a labelled set, dropout off."""
    ys = np.asarray(ys)
    if len(xs) == 0:
        raise EmptyDatasetError("evaluation set is empty")
    loss, preds = net.loss_and_predict(xs, ys)
    hard = ys if ys.ndim == 1 else ys.argmax(axis=1)
    return loss, int((preds == hard).sum()) / len(preds)
