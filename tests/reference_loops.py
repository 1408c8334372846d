"""Independent references for the local loops.

``repro.training.trainer.run_epochs`` sits behind plain training (scalar
and stacked), Goldfish's ``GoldfishUnlearner.unlearn`` and B3's
``IncompetentTeacherUnlearner.unlearn``, so "scalar equals stacked" no
longer compares two implementations of the loop — only two graphs
inside one.  These are the loops as they stood before
those merges (the ``train`` and ``GoldfishUnlearner.unlearn`` bodies,
and B3's own epoch loop with the ``apply_update`` it called, verbatim
apart from the names they are bound to): one model, one loader, no members, no stack.  The parity
properties compare the library against them bit for bit, so a change to
the shared loop that moves a trajectory fails here even when every
caller moves together.  :func:`reference_lockstep_epochs` is the
cohort's batch iteration as it stood before one K-form
:class:`~repro.data.loader.DataLoader` gathered it: a loader per
member, stepped together by ``zip``.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional

from repro.data.loader import DataLoader
from repro.nn import Tensor
from repro.nn.losses import cross_entropy, distillation_loss, get_hard_loss
from repro.nn.optim import SGD
from repro.training.config import EpochStats, TrainHistory
from repro.training.evaluation import predict_logits
from repro.training.trainer import make_optimizer
from repro.unlearning.baselines.incompetent import IncompetentTeacherResult
from repro.unlearning.early_stop import ExcessRiskStopper
from repro.unlearning.goldfish import (
    GoldfishResult,
    _ForgetBatchCycler,
    teacher_logits_on,
)
from repro.unlearning.losses import GoldfishLoss
from repro.unlearning.temperature import adaptive_temperature


def apply_update(objective, optimizer):
    """The backward → step helper B3's loop called, for one model."""
    objective.backward()
    optimizer.step()


def reference_lockstep_epochs(datasets, rngs, config):
    """``run_epochs``' member batches per epoch, from K loaders in lockstep:
    yields one list per epoch of the steps' ``batches`` tuples (one
    ``(indices, images, labels)`` per member)."""
    loaders = [
        DataLoader(dataset, batch_size=config.batch_size, shuffle=True, rng=rng)
        for dataset, rng in zip(datasets, rngs)
    ]
    for epoch in range(config.epochs):
        yield list(zip(*(loader.iter_indexed() for loader in loaders)))


def reference_train(model, dataset, config, rng, optimizer=None, epoch_callback=None):
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
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
            optimizer.step()
            total_loss += loss.item()
            num_batches += 1
        mean_loss = total_loss / num_batches
        history.record(EpochStats(epoch=epoch, mean_loss=mean_loss, num_batches=num_batches))
        if epoch_callback is not None and epoch_callback(epoch, mean_loss):
            break
    return history


def reference_unlearn(config, student, teacher, retain_set, forget_set, rng,
                      teacher_logits=None):
    start = time.perf_counter()
    num_forget = len(forget_set) if forget_set is not None else 0
    temperature = config.loss.temperature
    if config.adaptive_temperature:
        temperature = adaptive_temperature(
            config.loss.temperature,
            len(retain_set),
            num_forget,
            alpha=config.temperature_alpha,
        )
    loss_config = replace(config.loss, temperature=temperature)
    loss_fn = GoldfishLoss(loss_config, num_retain=len(retain_set),
                           num_forget=num_forget)
    distill = loss_config.use_distillation and loss_config.mu_d > 0
    teacher_logits = teacher_logits_on(teacher, retain_set, teacher_logits)

    stopper: Optional[ExcessRiskStopper] = None
    if config.early_stop.enabled:
        reference = cross_entropy(Tensor(teacher_logits), retain_set.labels).item()
        stopper = ExcessRiskStopper(config.early_stop, reference)

    optimizer = SGD(
        student.parameters(),
        lr=config.train.learning_rate,
        momentum=config.train.momentum,
        weight_decay=config.train.weight_decay,
    )
    retain_loader = DataLoader(retain_set, batch_size=config.train.batch_size,
                               shuffle=True, rng=rng)
    forget_cycler = None
    if forget_set is not None and len(forget_set) > 0:
        forget_cycler = _ForgetBatchCycler(forget_set, config.train.batch_size, rng)

    student.train()
    history = TrainHistory()
    stopped_early = False

    for _ in range(config.train.epochs):
        total = 0.0
        batches = 0
        for indices, images, labels in retain_loader.iter_indexed():
            optimizer.zero_grad()
            student_logits = student(Tensor(images))
            student_logits_forget = None
            labels_forget = None
            if forget_cycler is not None:
                forget_images, labels_forget = forget_cycler.next_batch()
                student_logits_forget = student(Tensor(forget_images))
            loss = loss_fn(
                student_logits,
                labels,
                teacher_logits_retain=(
                    Tensor(teacher_logits[indices]) if distill else None
                ),
                student_logits_forget=student_logits_forget,
                labels_forget=labels_forget,
            )
            loss.backward()
            optimizer.step()
            # Track the retain-side hard loss: that is the quantity
            # Eq. 7 compares against the previous global model.
            total += loss_fn.last_breakdown.hard_retain
            batches += 1
        history.record(
            EpochStats(epoch=len(history), mean_loss=total / batches, num_batches=batches)
        )
        if stopper is not None and stopper.update(history.final_loss):
            stopped_early = True
            break

    return GoldfishResult(
        history=history,
        stopped_early=stopped_early,
        temperature_used=temperature,
        wall_seconds=time.perf_counter() - start,
        teacher_logits=teacher_logits,
    )


def reference_incompetent_unlearn(config, student, competent_teacher,
                                  incompetent_teacher, retain_set, forget_set, rng):
    start = time.perf_counter()
    # Both teachers are frozen: one inference pass each, indexed per step.
    competent_logits = predict_logits(competent_teacher, retain_set.images)
    incompetent_logits = predict_logits(incompetent_teacher, forget_set.images)
    student.train()
    optimizer = make_optimizer(student, config.train)
    retain_loader = DataLoader(retain_set, batch_size=config.train.batch_size,
                               shuffle=True, rng=rng)
    forget_cycler = _ForgetBatchCycler(forget_set, config.train.batch_size, rng)

    history = TrainHistory()
    for _ in range(config.train.epochs):
        total = 0.0
        batches = 0
        # B3 is purely distillation-based: the labels go unused.
        for indices, images, _ in retain_loader.iter_indexed():
            optimizer.zero_grad()
            student_logits = student(Tensor(images))
            loss = (1.0 - config.beta) * distillation_loss(
                Tensor(competent_logits[indices]), student_logits,
                temperature=config.temperature,
            )

            picked = forget_cycler.next_indices()
            student_forget = student(Tensor(forget_set.images[picked]))
            loss = loss + config.beta * distillation_loss(
                Tensor(incompetent_logits[picked]), student_forget,
                temperature=config.temperature,
            )

            apply_update(loss, optimizer)
            total += loss.item()
            batches += 1
        history.record(
            EpochStats(epoch=len(history), mean_loss=total / batches, num_batches=batches)
        )

    return IncompetentTeacherResult(
        history=history,
        wall_seconds=time.perf_counter() - start,
    )
