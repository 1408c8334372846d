"""Plain supervised training loop (Algorithm 1, ``LocalTraining``).

Used by normal (non-unlearning) clients, by the retraining baselines and by
the shard trainers. The Goldfish teacher/student loop lives in
:mod:`repro.unlearning.goldfish`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.loader import DataLoader
from ..nn import Tensor
from ..nn.losses import get_hard_loss
from ..nn.module import Module
from ..nn.optim import SGD, Optimizer, clip_grad_norm
from .config import EpochStats, TrainConfig, TrainHistory


def make_optimizer(model: Module, config: TrainConfig) -> SGD:
    """Build the paper's SGD-with-momentum optimizer from a config."""
    return SGD(
        model.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )


def follow_dataset_dtype(model: Module, dataset: ArrayDataset) -> None:
    """Cast ``model`` in place to a floating dataset's dtype.

    Parameters (and, through ``zeros_like``, optimizer state) follow the
    data, so a float32 ``ArrayDataset`` trains a float32 model end to end
    instead of upcasting at the first parameter matmul.  :func:`train`,
    the vectorized cohort and both Goldfish paths all make this one call.
    The float64 default is a no-op, bit-identical to the historical path.
    """
    data_dtype = np.asarray(dataset.images).dtype
    if np.issubdtype(data_dtype, np.floating) and model.dtype != data_dtype:
        model.astype(data_dtype)


def train(
    model: Module,
    dataset: ArrayDataset,
    config: TrainConfig,
    rng: np.random.Generator,
    optimizer: Optional[Optimizer] = None,
    epoch_callback: Optional[Callable[[int, float], bool]] = None,
) -> TrainHistory:
    """Train ``model`` on ``dataset`` for ``config.epochs`` epochs.

    Parameters
    ----------
    optimizer:
        Optional pre-built optimizer (lets callers keep momentum state
        across calls, or substitute e.g. the diagonal-FIM optimizer of
        baseline B2). Defaults to fresh SGD from ``config``.
    epoch_callback:
        Called after every epoch with ``(epoch_index, mean_loss)``. If it
        returns True, training stops early (used by the empirical-risk
        early-termination mechanism).

    Returns
    -------
    TrainHistory with one entry per completed epoch.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    follow_dataset_dtype(model, dataset)
    loss_fn = get_hard_loss(config.loss)
    optimizer = optimizer if optimizer is not None else make_optimizer(model, config)
    loader = DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=rng)
    history = TrainHistory()
    model.train()

    for epoch in range(config.epochs):
        total_loss = 0.0
        num_batches = 0
        for images, labels in loader:
            optimizer.zero_grad()
            loss = loss_fn(model(Tensor(images)), labels)
            loss.backward()
            if config.grad_clip:
                clip_grad_norm(optimizer.parameters, config.grad_clip)
            optimizer.step()
            total_loss += loss.item()
            num_batches += 1
        mean_loss = total_loss / num_batches
        history.record(EpochStats(epoch=epoch, mean_loss=mean_loss, num_batches=num_batches))
        if epoch_callback is not None and epoch_callback(epoch, mean_loss):
            break
    return history
