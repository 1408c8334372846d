"""Baseline B2: rapid retraining via a diagonal empirical FIM.

Liu et al. ("The right to be forgotten in federated learning: an efficient
realization with rapid retraining", INFOCOM 2022) accelerate retraining by
approximating second-order curvature with the *diagonal empirical Fisher
information matrix* and taking Newton-like steps. The published method
maintains a running diagonal FIM estimate from per-sample gradients and
preconditions the SGD update by its inverse:

    F_t   = ρ F_{t-1} + (1-ρ) g_t ⊙ g_t
    ω_t+1 = ω_t − η g_t / (F_t + damping)

Like B1 this retrains from scratch on D_r (the paper notes "Both retrain
from scratch"), so its forgetting guarantee is exact; the FIM
preconditioning only buys convergence speed.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from ...data.dataset import ArrayDataset
from ...nn.module import Module, Parameter
from ...nn.optim import Optimizer
from ...training.config import TrainConfig, TrainHistory
from ...training.trainer import train


def check_rapid_options(
    rho: float, damping: float, lr_scale: Optional[float] = None
) -> None:
    """B2's hyper-parameter rule: ``rho`` in [0, 1), ``damping`` and (when
    given) ``lr_scale`` positive and finite; ``ValueError`` otherwise.

    :class:`DiagonalFIMSGD` checks it when built.  Callers that build one
    only later — :class:`RapidRetrainer`, the federated B2 flow and its
    registry entry — check it up front, before any side effect.
    """
    if lr_scale is not None and not (math.isfinite(lr_scale) and lr_scale > 0):
        raise ValueError(f"lr_scale must be positive and finite, got {lr_scale}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must be in [0, 1), got {rho}")
    if not (math.isfinite(damping) and damping > 0):
        raise ValueError(f"damping must be positive and finite, got {damping}")


class DiagonalFIMSGD(Optimizer):
    """SGD preconditioned by a running diagonal empirical Fisher estimate."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        rho: float = 0.95,
        damping: float = 1e-3,
    ) -> None:
        super().__init__(parameters, lr)
        check_rapid_options(rho, damping)
        self.rho = rho
        self.damping = damping
        self._fim: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._steps = 0

    def step(self) -> None:
        self._steps += 1
        correction = 1.0 - self.rho ** self._steps  # zero-initialised-average bias correction
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self._fim[index] is None:
                self._fim[index] = np.zeros_like(param.data)
            fim = self._fim[index]
            fim *= self.rho
            fim += (1.0 - self.rho) * grad * grad
            preconditioned = grad / (np.sqrt(fim / correction) + self.damping)
            param.data -= self.lr * preconditioned

    # ------------------------------------------------------------------
    # State round-tripping (lets the runtime layer move the optimizer's
    # accumulated curvature between processes: B2's whole point is that
    # the FIM estimate persists across rounds, so per-round worker tasks
    # must carry it out and back).
    # ------------------------------------------------------------------
    def fim_state(self) -> dict:
        """Snapshot the running FIM estimate and step counter (copied)."""
        return {
            "fim": [None if f is None else f.copy() for f in self._fim],
            "steps": self._steps,
        }

    def load_fim_state(self, state: dict) -> None:
        """Install a snapshot produced by :meth:`fim_state`."""
        fim = state["fim"]
        if len(fim) != len(self.parameters):
            raise ValueError(
                f"FIM state holds {len(fim)} entries for "
                f"{len(self.parameters)} parameters"
            )
        self._fim = [
            None if f is None else np.array(f, dtype=np.float64) for f in fim
        ]
        self._steps = int(state["steps"])


class RapidRetrainer:
    """B2 driver: from-scratch retraining with the FIM-preconditioned optimizer."""

    def __init__(self, lr_scale: float = 0.1, rho: float = 0.95, damping: float = 1e-3) -> None:
        """``lr_scale`` rescales the config's SGD learning rate, since
        preconditioned steps are much larger than raw-gradient steps."""
        check_rapid_options(rho, damping, lr_scale)
        self.lr_scale = lr_scale
        self.rho = rho
        self.damping = damping

    def retrain(
        self,
        model_factory: Callable[[], Module],
        retain_set: ArrayDataset,
        config: TrainConfig,
        rng: np.random.Generator,
    ) -> Tuple[Module, TrainHistory]:
        """Retrain a fresh model on ``retain_set`` with FIM acceleration."""
        model = model_factory()
        optimizer = DiagonalFIMSGD(
            model.parameters(),
            lr=config.learning_rate * self.lr_scale,
            rho=self.rho,
            damping=self.damping,
        )
        history = train(model, retain_set, config, rng, optimizer=optimizer)
        return model, history
