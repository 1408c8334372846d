"""The Goldfish composite loss (paper Section III-B, Eq. 1–6).

``L = Lh + µc · Lc + µd · Ld`` where

* **hard loss** ``Lh = Lr − λ·Lf`` (Eq. 1) — learn the remaining data,
  *unlearn* the removed data. The paper defines Lr/Lf as sums over the
  datasets with |D_r| ≫ |D_f|; on mini-batches we work with means and set
  ``λ = |D_f| / |D_r|`` so the two terms keep the paper's relative weight.
* **confusion loss** ``Lc`` (Eq. 2) — mean over the removed batch of the
  standard deviation (√variance) of the predicted probability vector;
  minimising it pushes predictions on removed samples toward the uniform
  distribution, eliminating *bias* toward any class (e.g. a backdoor
  target).
* **distillation loss** ``Ld`` (Eq. 5) — soft-target cross-entropy between
  teacher and student at distillation temperature T on the remaining data
  only, so the student inherits exactly the knowledge that does not touch
  D_f.

Component toggles implement the paper's Table X ablation; the hard-loss
registry implements Table XI (α=CE, β=focal, γ=NLL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..nn import functional as F
from ..nn.losses import distillation_loss, get_hard_loss
from ..nn.tensor import Tensor

_VARIANCE_EPS = 1e-12  # keeps sqrt differentiable at exactly-uniform outputs


@dataclass(frozen=True)
class GoldfishLossConfig:
    """Weights and toggles for the composite loss.

    Defaults follow the paper's experimental setup: T = 3, µd = 1.0,
    µc = 0.25 (Section IV-B, "Following the configuration of [36]").
    """

    temperature: float = 3.0
    mu_c: float = 0.25
    mu_d: float = 1.0
    hard_loss: str = "cross_entropy"
    use_confusion: bool = True
    use_distillation: bool = True
    forget_scale: Optional[float] = None  # None = auto |D_f| / |D_r|
    forget_cap: Optional[float] = None  # None = auto ln(num_classes)

    def __post_init__(self) -> None:
        # NaN passes every range check, so finiteness is checked first.
        for name in ("temperature", "mu_c", "mu_d", "forget_scale", "forget_cap"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.mu_c < 0 or self.mu_d < 0:
            raise ValueError("loss weights must be non-negative")
        get_hard_loss(self.hard_loss)  # validate the registry name early
        if self.forget_scale is not None and self.forget_scale < 0:
            raise ValueError("forget_scale must be non-negative")
        if self.forget_cap is not None and self.forget_cap <= 0:
            raise ValueError("forget_cap must be positive")


def confusion_loss(student_logits_forget: Tensor) -> Tensor:
    """Eq. 2: mean √variance of the predicted probability vectors.

    The variance is taken across classes for each removed sample; a
    perfectly unbiased (uniform) prediction has zero variance.
    """
    probs = F.softmax(student_logits_forget, axis=1)
    variance = probs.var(axis=1)
    return ((variance + _VARIANCE_EPS) ** 0.5).mean()


@dataclass
class LossBreakdown:
    """Scalar values of each component for logging/ablation analysis."""

    total: float
    hard_retain: float
    hard_forget: float
    confusion: float
    distillation: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "total": self.total,
            "hard_retain": self.hard_retain,
            "hard_forget": self.hard_forget,
            "confusion": self.confusion,
            "distillation": self.distillation,
        }


class GoldfishLoss:
    """Callable computing the composite loss on paired retain/forget batches.

    Parameters
    ----------
    config:
        Component weights and toggles.
    num_retain, num_forget:
        |D_r| and |D_f| for the client, used for the automatic λ scaling of
        the forget term (see module docstring).
    """

    def __init__(self, config: GoldfishLossConfig, num_retain: int, num_forget: int) -> None:
        if num_retain <= 0:
            raise ValueError("num_retain must be positive")
        if num_forget < 0:
            raise ValueError("num_forget must be non-negative")
        self.config = config
        self.num_retain = num_retain
        self.num_forget = num_forget
        self._hard = get_hard_loss(config.hard_loss)
        if config.forget_scale is not None:
            self.forget_scale = config.forget_scale
        else:
            self.forget_scale = min(1.0, num_forget / num_retain)
        self.last_breakdown: Optional[LossBreakdown] = None

    def __call__(
        self,
        student_logits_retain: Tensor,
        labels_retain: np.ndarray,
        teacher_logits_retain: Optional[Tensor] = None,
        student_logits_forget: Optional[Tensor] = None,
        labels_forget: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Compute ``L = Lh + µc·Lc + µd·Ld`` for one step.

        ``teacher_logits_retain`` may be omitted when distillation is
        disabled; the forget-batch arguments may be omitted when the client
        has no pending deletion (Algorithm 1, line 32).
        """
        config = self.config
        loss_retain = self._hard(student_logits_retain, labels_retain)
        total = loss_retain
        loss_forget_value = 0.0
        confusion_value = 0.0
        distillation_value = 0.0

        if student_logits_forget is not None and len(student_logits_forget) > 0:
            if labels_forget is None:
                raise ValueError("forget logits given without forget labels")
            loss_forget = self._hard(student_logits_forget, labels_forget)
            # Cap the (maximised) forget term at the loss of a *uniform*
            # prediction, ln(C). Past that point gradient ascent stops:
            # pushing predictions below uniform would anti-encode D_f
            # (detectable information) and numerically explodes the logits.
            # Within |D_r| >> |D_f| this preserves the paper's Eq. 1.
            cap = self.config.forget_cap
            if cap is None:
                cap = float(np.log(student_logits_forget.shape[1]))
            capped_forget = loss_forget.clip(-1e30, cap)
            total = total - self.forget_scale * capped_forget
            loss_forget_value = loss_forget.item()
            if config.use_confusion and config.mu_c > 0:
                conf = confusion_loss(student_logits_forget)
                total = total + config.mu_c * conf
                confusion_value = conf.item()

        if config.use_distillation and config.mu_d > 0:
            if teacher_logits_retain is None:
                raise ValueError("distillation enabled but no teacher logits given")
            distill = distillation_loss(
                teacher_logits_retain, student_logits_retain,
                temperature=config.temperature,
            )
            total = total + config.mu_d * distill
            distillation_value = distill.item()

        self.last_breakdown = LossBreakdown(
            total=total.item(),
            hard_retain=loss_retain.item(),
            hard_forget=loss_forget_value,
            confusion=confusion_value,
            distillation=distillation_value,
        )
        return total
