"""Early termination guided by excess empirical risk (paper Eq. 7).

``err(ω_c^t, ω^{t-1}) = | (1/n) Σ_i L(ω_c^t(i)) − L(ω^{t-1}) |``

Local training stops once the student's loss trajectory is within δ of the
previous global (teacher) model's loss: there is no point retraining past
the quality the federation had already reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class EarlyStopConfig:
    """Configuration for the excess-empirical-risk stopper.

    Attributes
    ----------
    delta:
        Threshold δ; training stops when the excess risk falls to ≤ δ.
    mode:
        ``"mean"`` follows Eq. 7 literally (average loss over all local
        epochs so far); ``"last"`` compares only the latest epoch's loss,
        a more aggressive variant exercised by the ablation benchmark.
    min_epochs:
        Never stop before this many local epochs.
    enabled:
        Master switch; disabled stoppers never fire.
    """

    delta: float = 0.05
    mode: str = "mean"
    min_epochs: int = 1
    enabled: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be non-negative and finite, got {self.delta}")
        if self.mode not in ("mean", "last"):
            raise ValueError(f"mode must be 'mean' or 'last', got {self.mode!r}")
        if self.min_epochs < 1:
            raise ValueError(f"min_epochs must be >= 1, got {self.min_epochs}")


class ExcessRiskStopper:
    """Stateful stopper fed one loss value per local epoch."""

    def __init__(self, config: EarlyStopConfig, reference_loss: float) -> None:
        """``reference_loss`` is L(ω^{t-1}): the previous global model's
        loss on the same (remaining) data the student trains on."""
        self.config = config
        self.reference_loss = float(reference_loss)
        self.epoch_losses: List[float] = []
        self.stopped_epoch: int = -1

    @property
    def num_epochs(self) -> int:
        return len(self.epoch_losses)

    def excess_risk(self) -> float:
        """Current err(ω_c^t, ω^{t-1}) per Eq. 7."""
        if not self.epoch_losses:
            raise ValueError("no epochs observed yet")
        if self.config.mode == "mean":
            trajectory = sum(self.epoch_losses) / len(self.epoch_losses)
        else:
            trajectory = self.epoch_losses[-1]
        return abs(trajectory - self.reference_loss)

    def update(self, epoch_loss: float) -> bool:
        """Record one epoch's loss; returns True if training should stop."""
        self.epoch_losses.append(float(epoch_loss))
        if not self.config.enabled:
            return False
        if len(self.epoch_losses) < self.config.min_epochs:
            return False
        if self.excess_risk() <= self.config.delta:
            self.stopped_epoch = len(self.epoch_losses) - 1
            return True
        return False

    @property
    def stopped_early(self) -> bool:
        return self.stopped_epoch >= 0
