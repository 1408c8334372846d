"""Training hyper-parameter containers.

Defaults follow the paper's Section IV-A: batch size B = 100, learning
rate η = 0.001, momentum β = 0.9. Experiments at reduced (CPU) scale pass a
larger learning rate explicitly; the paper values remain the defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one local training run."""

    epochs: int = 1
    batch_size: int = 100
    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0
    loss: str = "cross_entropy"

    def __post_init__(self) -> None:
        # A float count would only fail deep in the loop; bool is an int.
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        # NaN passes every range check, so finiteness is checked first.
        for name in ("learning_rate", "momentum", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {self.weight_decay}")

    def with_overrides(self, **kwargs) -> "TrainConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass
class EpochStats:
    """Loss/accuracy bookkeeping for a single epoch of training."""

    epoch: int
    mean_loss: float
    num_batches: int


@dataclass
class TrainHistory:
    """Accumulated per-epoch statistics of one training run."""

    epochs: list = field(default_factory=list)

    def record(self, stats: EpochStats) -> None:
        self.epochs.append(stats)

    @property
    def losses(self) -> list:
        return [e.mean_loss for e in self.epochs]

    @property
    def final_loss(self) -> float:
        if not self.epochs:
            raise ValueError("no epochs recorded")
        return self.epochs[-1].mean_loss

    def __len__(self) -> int:
        return len(self.epochs)
