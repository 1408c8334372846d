"""The Goldfish basic model: teacher/student distillation unlearning.

Implements the ``Goldfish`` procedure of Algorithm 1. The previous global
model (which has seen D_f and D_r) acts as the *teacher*; a student —
typically freshly initialised, hence knowing nothing about D_f — retrains
on the client's data under the composite loss of
:mod:`repro.unlearning.losses`:

* knowledge is distilled from the teacher **only on D_r**, so the transfer
  channel structurally cannot carry D_f-specific information;
* the hard loss rewards fitting D_r and *unfitting* D_f;
* the confusion loss removes prediction bias on D_f (e.g. backdoor
  targets);
* excess-empirical-risk early termination (Eq. 7) and the adaptive
  distillation temperature (Eq. 11) plug in from their own modules.

The teacher is frozen, so it is evaluated **once** per client per
unlearning request (:func:`teacher_logits_on`): every step indexes the
resulting retain-aligned array by the batch's sample indices, and the
Eq. 7 reference loss is read off it.  The logits are a function of
individual training samples, so callers hold them for one request only
(a local of :func:`repro.unlearning.protocols.federated_goldfish`), never
on a client, in a history, a result store or a journal — a later
deletion must find nothing to purge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from ..data.dataset import ArrayDataset
from ..data.loader import DataLoader
from ..nn import Tensor
from ..nn.losses import cross_entropy
from ..nn.module import Module
from ..nn.optim import SGD, clip_grad_norm
from ..training.config import TrainConfig
from ..training.evaluation import predict_logits
from ..training.trainer import follow_dataset_dtype
from .early_stop import EarlyStopConfig, ExcessRiskStopper
from .losses import GoldfishLoss, GoldfishLossConfig
from .temperature import adaptive_temperature


@dataclass(frozen=True)
class GoldfishConfig:
    """Everything the Goldfish local unlearning loop needs.

    ``loss`` carries the composite-loss weights (T, µc, µd and the
    ablation toggles); ``train`` carries the SGD hyper-parameters;
    ``early_stop`` the Eq. 7 stopper; ``adaptive_temperature`` switches the
    Eq. 11 extension on.
    """

    loss: GoldfishLossConfig = field(default_factory=GoldfishLossConfig)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=5))
    early_stop: EarlyStopConfig = field(default_factory=lambda: EarlyStopConfig(enabled=False))
    adaptive_temperature: bool = False
    temperature_alpha: float = float(np.e)


@dataclass
class GoldfishResult:
    """Outcome of one local Goldfish run."""

    epochs_run: int
    epoch_losses: List[float]
    stopped_early: bool
    temperature_used: float
    wall_seconds: float
    teacher_logits: np.ndarray  # on D_r^c; the next round's call takes them


class _ForgetBatchCycler:
    """Endless shuffled iterator over the forget set's mini-batches."""

    def __init__(self, forget_set: ArrayDataset, batch_size: int,
                 rng: np.random.Generator) -> None:
        self.forget_set = forget_set
        self.batch_size = min(batch_size, len(forget_set))
        self.rng = rng
        self._order = rng.permutation(len(forget_set))
        self._cursor = 0

    def next_batch(self):
        if self._cursor + self.batch_size > len(self._order):
            self._order = self.rng.permutation(len(self.forget_set))
            self._cursor = 0
        batch = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.forget_set.images[batch], self.forget_set.labels[batch]


def teacher_logits_on(
    teacher: Optional[Module],
    retain_set: ArrayDataset,
    teacher_logits: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The frozen teacher's logits on D_r^c, one row per retained sample:
    the carried ``teacher_logits`` when given (they must align with the
    retain set), else one inference pass of ``teacher``."""
    if teacher_logits is None:
        if teacher is None:
            raise ValueError("need the teacher or its logits on the retain set")
        follow_dataset_dtype(teacher, retain_set)
        return predict_logits(teacher, retain_set.images)
    if len(teacher_logits) != len(retain_set):
        raise ValueError(
            f"teacher_logits holds {len(teacher_logits)} rows for "
            f"{len(retain_set)} retained samples"
        )
    return teacher_logits


class GoldfishUnlearner:
    """Runs the teacher/student unlearning loop on one client's data."""

    def __init__(self, config: GoldfishConfig) -> None:
        self.config = config

    def _resolve_temperature(self, num_retain: int, num_forget: int) -> float:
        if not self.config.adaptive_temperature:
            return self.config.loss.temperature
        return adaptive_temperature(
            self.config.loss.temperature,
            num_retain,
            num_forget,
            alpha=self.config.temperature_alpha,
        )

    def unlearn(
        self,
        student: Module,
        teacher: Optional[Module],
        retain_set: ArrayDataset,
        forget_set: Optional[ArrayDataset],
        rng: np.random.Generator,
        teacher_logits: Optional[np.ndarray] = None,
    ) -> GoldfishResult:
        """Run the ``Goldfish`` procedure of Algorithm 1 on one client.

        Parameters
        ----------
        student:
            The model to train (modified in place). Usually freshly
            initialised (ω^0) per the deletion branch of Algorithm 1.
        teacher:
            The previous global model ω^{t-1}; used for one inference
            pass over D_r^c, or not at all (it may be None) when
            ``teacher_logits`` — an earlier call's
            ``GoldfishResult.teacher_logits`` — is given.
        retain_set / forget_set:
            D_r^c and D_f^c. ``forget_set`` may be None/empty for normal
            clients, in which case the loop degrades to distillation +
            hard loss on D_r (Algorithm 1, line 32).
        """
        start = time.perf_counter()
        config = self.config
        follow_dataset_dtype(student, retain_set)
        num_forget = len(forget_set) if forget_set is not None else 0
        temperature = self._resolve_temperature(len(retain_set), num_forget)
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
