"""Baseline B3: incompetent-teacher unlearning.

Chundawat et al. ("Can bad teaching induce forgetting? Unlearning in deep
networks using an incompetent teacher", AAAI 2023): a student initialised
*from the original model* is taught by two teachers —

* the **competent** teacher (the original model) on the remaining data,
  preserving utility;
* an **incompetent** teacher (a randomly initialised network) on the
  removed data, actively destroying whatever the student knows about it.

The per-batch objective is a KL-divergence mixture::

    L = (1-β) · KL(P_competent ‖ P_student) over D_r
      +   β   · KL(P_incompetent ‖ P_student) over D_f

It is one step of :func:`repro.training.trainer.run_epochs`, the epoch
loop every local trainer shares.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ...data.dataset import ArrayDataset
from ...nn import Tensor
from ...nn.losses import distillation_loss
from ...nn.module import Module
from ...training.config import TrainConfig, TrainHistory
from ...training.evaluation import predict_logits
from ...training.trainer import make_optimizer, run_epochs
from ..goldfish import _ForgetBatchCycler


@dataclass(frozen=True)
class IncompetentTeacherConfig:
    """Hyper-parameters for B3."""

    beta: float = 0.5  # weight of the incompetent (forgetting) term
    temperature: float = 1.0
    train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=5))

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(
                f"temperature must be positive and finite, got {self.temperature}"
            )


@dataclass
class IncompetentTeacherResult:
    history: TrainHistory  # one entry per completed epoch
    wall_seconds: float


class IncompetentTeacherUnlearner:
    """Runs the dual-teacher unlearning loop."""

    def __init__(self, config: IncompetentTeacherConfig) -> None:
        self.config = config

    def unlearn(
        self,
        student: Module,
        competent_teacher: Module,
        incompetent_teacher: Module,
        retain_set: ArrayDataset,
        forget_set: ArrayDataset,
        rng: np.random.Generator,
    ) -> IncompetentTeacherResult:
        """Unlearn ``forget_set`` from ``student`` in place.

        ``student`` should be loaded with the original model's weights
        (B3 adjusts the trained model rather than restarting).
        ``incompetent_teacher`` should be freshly initialised.
        """
        if len(forget_set) == 0:
            raise ValueError("B3 needs a non-empty forget set to unlearn")
        start = time.perf_counter()
        config = self.config
        # Both teachers are frozen: one inference pass each, indexed per
        # step.
        competent_logits = predict_logits(competent_teacher, retain_set.images)
        incompetent_logits = predict_logits(incompetent_teacher, forget_set.images)
        student.train()
        optimizer = make_optimizer(student, config.train)
        forget_cycler = _ForgetBatchCycler(forget_set, config.train.batch_size, rng)

        def step(batch):
            # B3 is purely distillation-based: the labels go unused.
            indices, images, _ = batch
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
            return loss, (loss.item(),)

        (history,) = run_epochs([retain_set], [rng], config.train, optimizer, step)
        return IncompetentTeacherResult(
            history=history,
            wall_seconds=time.perf_counter() - start,
        )
