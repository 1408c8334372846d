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

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ...data.dataset import ArrayDataset
from ...nn.module import Module, Parameter
from ...nn.optim import Optimizer
from ...training.config import TrainConfig, TrainHistory
from ...training.trainer import train


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
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        if damping <= 0:
            raise ValueError(f"damping must be positive, got {damping}")
        self.rho = rho
        self.damping = damping
        self._fim: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._steps = 0

    def step(self) -> None:
        self._steps += 1
        correction = 1.0 - self.rho ** self._steps  # bias correction like Adam
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
    @staticmethod
    def empty_fim_state(num_parameters: int) -> dict:
        """The state of a freshly constructed optimizer (no curvature yet)."""
        return {"fim": [None] * num_parameters, "steps": 0}

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

    def load_stacked_fim_states(self, states: Sequence[dict]) -> None:
        """Install K members' snapshots as one stacked snapshot (this
        optimizer drives ``(K, ...)`` stacked parameters).

        Mirrors :meth:`load_fim_state` per slice — including its float64
        forcing — so slice ``k`` of every stacked FIM array is
        bit-identical to member ``k``'s standalone load.  Callers gate on
        a uniform ``steps`` counter and a uniform per-parameter
        None-pattern.
        """
        for state in states:
            if len(state["fim"]) != len(self.parameters):
                raise ValueError(
                    f"FIM state holds {len(state['fim'])} entries for "
                    f"{len(self.parameters)} parameters"
                )
        stacked: List[Optional[np.ndarray]] = []
        for index in range(len(self.parameters)):
            entries = [state["fim"][index] for state in states]
            if all(entry is None for entry in entries):
                stacked.append(None)
            else:
                stacked.append(
                    np.stack([np.array(entry, dtype=np.float64) for entry in entries])
                )
        self._fim = stacked
        self._steps = int(states[0]["steps"])

    def member_fim_state(self, member: int) -> dict:
        """Member ``member``'s snapshot out of a stacked optimizer — the
        exact dict its standalone :meth:`fim_state` would return."""
        return {
            "fim": [None if f is None else f[member].copy() for f in self._fim],
            "steps": self._steps,
        }


class RapidRetrainer:
    """B2 driver: from-scratch retraining with the FIM-preconditioned optimizer."""

    def __init__(self, lr_scale: float = 0.1, rho: float = 0.95, damping: float = 1e-3) -> None:
        """``lr_scale`` rescales the config's SGD learning rate, since
        preconditioned steps are much larger than raw-gradient steps."""
        if lr_scale <= 0:
            raise ValueError(f"lr_scale must be positive, got {lr_scale}")
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
