"""Model evaluation helpers shared by the FL server and the experiments."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn import Tensor, no_grad
from ..nn import functional as F
from ..nn import losses as L
from ..nn.module import Module


def predict_logits(model: Module, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Run ``model`` over ``images`` in eval mode, returning raw logits.

    An empty input still runs one (empty) forward, so the result is always
    ``(len(images), num_classes)``.
    """
    was_training = model.training
    model.eval()
    outputs = []
    with no_grad():
        for start in range(0, max(len(images), 1), batch_size):
            outputs.append(model(Tensor(images[start : start + batch_size])).data)
    if was_training:
        model.train()
    return np.concatenate(outputs)


def predict_proba(model: Module, images: np.ndarray, batch_size: int = 256,
                  temperature: float = 1.0) -> np.ndarray:
    """Softmax class probabilities for ``images``."""
    logits = predict_logits(model, images, batch_size)
    scaled = logits / temperature
    scaled -= scaled.max(axis=1, keepdims=True)
    exp = np.exp(scaled)
    return exp / exp.sum(axis=1, keepdims=True)


def evaluate(model: Module, dataset: ArrayDataset, batch_size: int = 256) -> Tuple[float, float]:
    """Return ``(mean cross-entropy loss, accuracy)`` on ``dataset``."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    logits = predict_logits(model, dataset.images, batch_size)
    loss = L.cross_entropy(Tensor(logits), dataset.labels).item()
    accuracy = float((logits.argmax(axis=1) == dataset.labels).mean())
    return loss, accuracy


def accuracy(model: Module, dataset: ArrayDataset, batch_size: int = 256) -> float:
    """Classification accuracy on ``dataset``."""
    return evaluate(model, dataset, batch_size)[1]


def mean_loss(model: Module, dataset: ArrayDataset, batch_size: int = 256) -> float:
    """Mean cross-entropy loss on ``dataset``."""
    return evaluate(model, dataset, batch_size)[0]


def prediction_mse(model: Module, dataset: ArrayDataset, batch_size: int = 256) -> float:
    """MSE between predicted probabilities and one-hot labels.

    This is the quality score ``me_c`` the server computes per client in
    the adaptive-weight extension (paper Eq. 12).
    """
    probs = predict_proba(model, dataset.images, batch_size)
    targets = F.one_hot(dataset.labels, dataset.num_classes)
    return float(((probs - targets) ** 2).mean())
