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
    stop_accuracy: float | None = None  # early-stop once evaluated train accuracy reaches this

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.stop_accuracy is not None and not 0.0 <= self.stop_accuracy <= 1.0:
            raise ValueError(f"stop_accuracy must lie in [0, 1] when given, got {self.stop_accuracy}")


def train(
    net: Network, dataset: tuple[np.ndarray, np.ndarray], cfg: TrainConfig, inputs: Callable[[int], np.ndarray] | None = None
):
    """SGD-train the network in place; returns (net, history).

    Each epoch is one pass of mini-batch SGD over a shuffle of the rows,
    with dropout on in the parameter gradients. When given, `inputs(epoch)`
    returns the images to train on in that epoch, in the row order of
    `dataset`. Deterministic for a fixed config seed: the same shuffles,
    the same dropout draws, the same parameters.

    History reads both of its per-epoch entries off the SGD passes
    themselves, with dropout as trained: "loss" is the mean batch loss
    and "accuracy" the share of that epoch's rows their own pass
    labelled correctly (soft labels by argmax). Only the stop rule
    evaluates: with `stop_accuracy` set, `evaluate` runs after each epoch
    (dropout off, the epoch's final parameters) and training stops once
    its accuracy reaches the bar.
    """
    xs, ys = dataset
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys)
    n = xs.shape[0]
    if n == 0:
        raise EmptyDatasetError("training set is empty")

    hard = _hard_labels(ys)
    shuffle_rng = np.random.default_rng(cfg.seed)
    history = {"loss": [], "accuracy": []}
    for epoch in range(cfg.epochs):
        if inputs is not None:
            xs = inputs(epoch)
        order = shuffle_rng.permutation(n)
        losses = []
        correct = 0
        for start in range(0, n, cfg.batch_size):
            take = order[start : start + cfg.batch_size]
            loss, labels, grads = net.param_gradients(xs[take], ys[take], train=True)
            losses.append(loss)
            correct += int((labels == hard[take]).sum())
            for layer_params, layer_grads in zip(net.params, grads):
                for name, g in layer_grads.items():
                    layer_params[name] -= cfg.learning_rate * g
        history["loss"].append(float(np.mean(losses)))
        history["accuracy"].append(correct / n)
        if cfg.stop_accuracy is not None and evaluate(net, xs, ys)[1] >= cfg.stop_accuracy:
            break
    return net, history


def _hard_labels(ys: np.ndarray) -> np.ndarray:
    """True labels as class indices, to compare with `predict`: soft labels by argmax."""
    return ys if ys.ndim == 1 else ys.argmax(axis=1)


def evaluate(net: Network, xs: np.ndarray, ys) -> tuple[float, float]:
    """(mean loss, accuracy) over a labelled set, dropout off."""
    ys = np.asarray(ys)
    if len(xs) == 0:
        raise EmptyDatasetError("evaluation set is empty")
    loss, preds = net.loss_and_predict(xs, ys)
    return loss, int((preds == _hard_labels(ys)).sum()) / len(preds)
