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
on a client, in a history or a journal — a later
deletion must find nothing to purge.

Algorithm 1 runs one client at a time, and so does this module:
:meth:`GoldfishUnlearner.unlearn` is the local step over one student in
its native layout, run by the one epoch loop,
:func:`repro.training.trainer.run_epochs`.  The federated flow runs it
once per client per round (``_GoldfishClientTask`` in
:mod:`repro.unlearning.protocols`, a client train task: the student
starts from the round's broadcast, trains on the client's retained
rows and comes back as a ``TrainResult`` under the simulation's codec,
with this module's history and, in round 0, the teacher's logits in
its ``extra``).  Students are not stacked: a stacked cohort of them ran
less than 1.2x faster than lone students on the paper's LeNet-5
scenarios, and slower at batch 50.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn import Tensor
from ..nn.losses import cross_entropy
from ..nn.module import Module
from ..training.config import TrainConfig, TrainHistory
from ..training.evaluation import predict_logits
from ..training.trainer import make_optimizer, run_epochs
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

    history: TrainHistory  # one entry per completed epoch
    stopped_early: bool
    temperature_used: float
    wall_seconds: float
    teacher_logits: np.ndarray  # on D_r^c; the next round's call takes them


class _ForgetBatchCycler:
    """Endless shuffled iterator over the forget set's mini-batches:
    one permutation at a time, redrawn when the next batch would run off
    its end.  Goldfish takes the batches, B3 the indices (it indexes its
    incompetent teacher's logits by them)."""

    def __init__(self, forget_set: ArrayDataset, batch_size: int,
                 rng: np.random.Generator) -> None:
        self.forget_set = forget_set
        self.batch_size = min(batch_size, len(forget_set))
        self.rng = rng
        self._order = rng.permutation(len(forget_set))
        self._cursor = 0

    def next_indices(self) -> np.ndarray:
        if self._cursor + self.batch_size > len(self._order):
            self._order = self.rng.permutation(len(self.forget_set))
            self._cursor = 0
        batch = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch

    def next_batch(self):
        batch = self.next_indices()
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
        num_forget = len(forget_set) if forget_set is not None else 0
        temperature = self._resolve_temperature(len(retain_set), num_forget)
        loss_fn = GoldfishLoss(
            replace(config.loss, temperature=temperature),
            num_retain=len(retain_set),
            num_forget=num_forget,
        )
        teacher_logits = teacher_logits_on(teacher, retain_set, teacher_logits)
        stopper: Optional[ExcessRiskStopper] = None
        if config.early_stop.enabled:
            reference = cross_entropy(Tensor(teacher_logits), retain_set.labels).item()
            stopper = ExcessRiskStopper(config.early_stop, reference)
        # ``rng`` is touched in the order the client's stream has always
        # seen: the forget cycler's first permutation here, then the
        # retain loader's, which draws each epoch's permutation when it
        # starts.
        forget_cycler = None
        if num_forget > 0:
            forget_cycler = _ForgetBatchCycler(forget_set, config.train.batch_size, rng)
        distill = config.loss.use_distillation and config.loss.mu_d > 0
        optimizer = make_optimizer(student, config.train)
        student.train()

        def step(batch):
            indices, images, labels = batch
            logits = student(Tensor(images))
            logits_forget = labels_forget = None
            if forget_cycler is not None:
                images_forget, labels_forget = forget_cycler.next_batch()
                logits_forget = student(Tensor(images_forget))
            loss = loss_fn(
                logits,
                labels,
                teacher_logits_retain=(
                    Tensor(teacher_logits[indices]) if distill else None
                ),
                student_logits_forget=logits_forget,
                labels_forget=labels_forget,
            )
            return loss, (loss_fn.last_breakdown.hard_retain,)

        # Mean retain-side hard loss per completed epoch: the quantity
        # Eq. 7 compares against the previous global model.
        (history,) = run_epochs(
            [retain_set],
            [rng],
            config.train,
            optimizer,
            step,
            epoch_callback=(
                None if stopper is None else lambda _, mean_loss: stopper.update(mean_loss)
            ),
        )
        return GoldfishResult(
            history=history,
            stopped_early=stopper is not None and stopper.stopped_early,
            temperature_used=loss_fn.config.temperature,
            wall_seconds=time.perf_counter() - start,
            teacher_logits=teacher_logits,
        )
