"""Plain supervised training loop (Algorithm 1, ``LocalTraining``).

Used by normal (non-unlearning) clients, by the retraining baselines and by
the shard trainers.

There is one epoch loop, :func:`run_epochs`.  :func:`train` runs it over
one model in its native layout; the vectorized cohort runs it over K
members whose step is one stacked graph; Goldfish's teacher/student step
(:mod:`repro.unlearning.goldfish`) and B3's dual-teacher step
(:mod:`repro.unlearning.baselines.incompetent`) are two more steps over
it.  A lone model is the cohort of one *without* a stack axis: as a
stack of one (``Module.stack = 1``) a step costs about a third more on a
small MLP (+5 % on LeNet-5), which the scalar path has no reason to pay.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.loader import DataLoader
from ..nn import Tensor
from ..nn.losses import get_hard_loss
from ..nn.module import Module
from ..nn.optim import SGD, Optimizer
from .config import EpochStats, TrainConfig, TrainHistory


def make_optimizer(model: Module, config: TrainConfig) -> SGD:
    """Build the paper's SGD-with-momentum optimizer from a config."""
    return SGD(
        model.parameters(),
        lr=config.learning_rate,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )


def run_epochs(
    datasets: Sequence[ArrayDataset],
    rngs: Sequence[np.random.Generator],
    config: TrainConfig,
    optimizer: Optimizer,
    step: Callable[[tuple], Tuple[Tensor, Sequence[float]]],
    cohort: bool = False,
    epoch_callback: Optional[Callable[[int, float], bool]] = None,
) -> List[TrainHistory]:
    """The epoch loop — the only one — over one member (:func:`train`,
    Goldfish's student, B3) or a lockstep cohort
    (:meth:`repro.federated.vectorized.VectorizedCohort.train`).

    One shuffled :class:`~repro.data.loader.DataLoader` serves every
    member, each drawing its epoch permutation from its own generator
    before the epoch's first step, exactly as it would alone (building
    the loader draws nothing).  ``step`` maps one of the loader's
    ``(indices, images, labels)`` batches to the scalar objective to
    differentiate and each member's loss value to average per epoch: a
    lone model gets its own ``(N, ...)`` rows, a ``cohort`` the K-form's
    batch — ``(K, B, ...)`` arrays gathered in one
    indexing op per step, or per-member lists at a ragged final step.
    The step owns the graph, the loop everything around it: zero-grad,
    then backward → step under the whole :class:`TrainConfig`.
    ``epoch_callback`` sees the first member's mean loss; stopping on it
    is a lone-member feature, a cohort passes none.
    """
    if cohort:
        loader = DataLoader(list(datasets), config.batch_size, shuffle=True, rng=list(rngs))
    else:
        (dataset,), (rng,) = datasets, rngs
        loader = DataLoader(dataset, config.batch_size, shuffle=True, rng=rng)
    histories = [TrainHistory() for _ in datasets]
    for epoch in range(config.epochs):
        totals = [0.0] * len(histories)
        num_batches = 0
        for batch in loader.iter_indexed():
            optimizer.zero_grad()
            objective, losses = step(batch)
            objective.backward()
            optimizer.step()
            for index, loss in enumerate(losses):
                totals[index] += loss
            num_batches += 1
        means = [total / num_batches for total in totals]
        for history, mean_loss in zip(histories, means):
            history.record(
                EpochStats(epoch=epoch, mean_loss=mean_loss, num_batches=num_batches)
            )
        if epoch_callback is not None and epoch_callback(epoch, means[0]):
            break
    return histories


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
    loss_fn = get_hard_loss(config.loss)
    optimizer = optimizer if optimizer is not None else make_optimizer(model, config)
    model.train()

    def step(batch):
        _, images, labels = batch
        loss = loss_fn(model(Tensor(images)), labels)
        return loss, (loss.item(),)

    return run_epochs(
        [dataset], [rng], config, optimizer, step, epoch_callback=epoch_callback
    )[0]
