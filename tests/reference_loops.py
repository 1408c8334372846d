"""Independent references for the local loops.

``repro.training.trainer.run_epochs`` sits behind plain training (scalar
and stacked), Goldfish's ``GoldfishUnlearner.run_members`` (scalar and
stacked) and B3's ``IncompetentTeacherUnlearner.unlearn``, so "scalar
equals stacked" no longer compares two implementations of the loop —
only two graphs inside one.  These are the loops as they stood before
those merges (the ``train``, ``GoldfishUnlearner.unlearn`` and
``clip_grad_norm`` bodies, and B3's own epoch loop with the
``apply_update`` it called, verbatim apart from the names they are bound
to): one model, one loader, no members, no stack.  The parity
properties compare the library against them bit for bit, so a change to
the shared loop that moves a trajectory fails here even when every
caller moves together.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.data.loader import DataLoader
from repro.nn import Tensor
from repro.nn.losses import cross_entropy, distillation_loss, get_hard_loss
from repro.nn.optim import SGD
from repro.training.config import EpochStats, TrainHistory
from repro.training.evaluation import predict_logits
from repro.training.trainer import follow_dataset_dtype, make_optimizer
from repro.unlearning.baselines.incompetent import IncompetentTeacherResult
from repro.unlearning.early_stop import ExcessRiskStopper
from repro.unlearning.goldfish import (
    GoldfishResult,
    _ForgetBatchCycler,
    teacher_logits_on,
)
from repro.unlearning.losses import GoldfishLoss
from repro.unlearning.temperature import adaptive_temperature


def clip_grad_norm(parameters, max_norm):
    """One model's clip as it stood before it learned about stack axes."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in params:
            param.grad *= scale
    return total


def apply_update(objective, optimizer, config):
    """The backward → clip → step helper B3's loop called, for one model."""
    objective.backward()
    if config.grad_clip:
        clip_grad_norm(optimizer.parameters, config.grad_clip)
    optimizer.step()


def reference_train(model, dataset, config, rng, optimizer=None, epoch_callback=None):
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


def reference_unlearn(config, student, teacher, retain_set, forget_set, rng,
                      teacher_logits=None):
    start = time.perf_counter()
    follow_dataset_dtype(student, retain_set)
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
    epoch_losses: List[float] = []
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
            if config.train.grad_clip:
                clip_grad_norm(optimizer.parameters, config.train.grad_clip)
            optimizer.step()
            # Track the retain-side hard loss: that is the quantity
            # Eq. 7 compares against the previous global model.
            total += loss_fn.last_breakdown.hard_retain
            batches += 1
        epoch_losses.append(total / batches)
        if stopper is not None and stopper.update(epoch_losses[-1]):
            stopped_early = True
            break

    return GoldfishResult(
        epochs_run=len(epoch_losses),
        epoch_losses=epoch_losses,
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

    epoch_losses: List[float] = []
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

            apply_update(loss, optimizer, config.train)
            total += loss.item()
            batches += 1
        epoch_losses.append(total / batches)

    return IncompetentTeacherResult(
        epochs_run=len(epoch_losses),
        epoch_losses=epoch_losses,
        wall_seconds=time.perf_counter() - start,
    )
