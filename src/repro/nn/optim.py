"""The optimizer: SGD and its base class.

The paper trains with SGD (learning rate 0.001, momentum 0.9, Section
IV-A); B2's Fisher-preconditioned step
(:class:`~repro.unlearning.baselines.rapid.DiagonalFIMSGD`) builds on the
same :class:`Optimizer` base.  Every hyper-parameter is checked finite:
NaN compares false against every bound, so a range check alone would let
it through.

The ``step`` hot path is allocation-free after warm-up: every
per-parameter temporary (weight-decay-adjusted gradient, scaled update)
is computed into reusable scratch buffers via ``out=`` ufuncs instead of
fresh arrays.  The operation *order* is preserved exactly — only
commutative operand swaps, never re-associations — so the update is
**bitwise identical** to the naive expression-per-line form (verified by
the parity tests against a reference implementation).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

import numpy as np

from .module import Parameter


class Optimizer:
    """Base class holding the parameter list and zero-grad plumbing."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        self.lr = float(lr)
        # Per-parameter scratch buffers for the in-place step hot paths
        # ((param index, slot) -> array).  Pure workspace — never part of
        # the optimizer's semantic state, so snapshot/restore of momentum
        # or FIM state is unaffected.
        self._scratch: Dict[tuple, np.ndarray] = {}

    def _buffer(self, index: int, slot: int, like: np.ndarray) -> np.ndarray:
        """A reusable scratch array shaped/typed like ``like``."""
        buffer = self._scratch.get((index, slot))
        if buffer is None or buffer.shape != like.shape or buffer.dtype != like.dtype:
            buffer = np.empty_like(like)
            self._scratch[(index, slot)] = buffer
        return buffer

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum and weight decay.

    The update is purely elementwise, so over parameters that carry a
    leading stack axis (:attr:`~repro.nn.module.Module.stack`) slice
    ``k`` of every parameter and velocity buffer evolves bit for bit as a
    lone ``SGD`` on model ``k`` would.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if not (math.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError(
                f"weight decay must be non-negative and finite, got {weight_decay}"
            )
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                # grad + wd·data, computed as (wd·data) + grad into a
                # scratch buffer — addition commutes bitwise, so the
                # value is unchanged while the two temporaries are not.
                decayed = self._buffer(index, 0, param.data)
                np.multiply(param.data, self.weight_decay, out=decayed)
                decayed += grad
                grad = decayed
            if self.momentum:
                if self._velocity[index] is None:
                    self._velocity[index] = np.zeros_like(param.data)
                velocity = self._velocity[index]
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            update = self._buffer(index, 1, param.data)
            np.multiply(grad, self.lr, out=update)
            param.data -= update

