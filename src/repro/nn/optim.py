"""Optimizers and learning-rate schedules.

The paper trains with SGD (learning rate 0.001, momentum 0.9); Adam and a
step scheduler are provided for the examples and ablations.

The ``step`` hot paths are allocation-free after warm-up: every
per-parameter temporary (weight-decay-adjusted gradient, scaled update,
Adam's bias-corrected numerator/denominator) is computed into reusable
scratch buffers via ``out=`` ufuncs instead of fresh arrays.  The
operation *order* is preserved exactly — only commutative operand swaps,
never re-associations — so the update is **bitwise identical** to the
naive expression-per-line form (verified by the parity tests against
reference implementations).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .module import Parameter


class Optimizer:
    """Base class holding the parameter list and zero-grad plumbing."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
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
        if weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
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


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                decayed = self._buffer(index, 0, param.data)
                np.multiply(param.data, self.weight_decay, out=decayed)
                decayed += grad
                grad = decayed
            if self._m[index] is None:
                self._m[index] = np.zeros_like(param.data)
                self._v[index] = np.zeros_like(param.data)
            m, v = self._m[index], self._v[index]
            scratch = self._buffer(index, 1, param.data)
            m *= self.beta1
            np.multiply(grad, 1 - self.beta1, out=scratch)  # (1−β1)·grad
            m += scratch
            v *= self.beta2
            np.multiply(grad, 1 - self.beta2, out=scratch)  # ((1−β2)·grad)·grad
            scratch *= grad
            v += scratch
            # lr·(m/bias1) / (sqrt(v/bias2) + eps), same evaluation order.
            numerator = self._buffer(index, 2, param.data)
            np.divide(m, bias1, out=numerator)
            numerator *= self.lr
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            numerator /= scratch
            param.data -= numerator


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019).

    Unlike :class:`Adam`'s L2-in-the-gradient coupling, the decay is
    applied directly to the weights, independent of the adaptive scaling —
    the variant modern vision/transformer recipes default to.
    """

    def step(self) -> None:
        if self.weight_decay:
            for index, param in enumerate(self.parameters):
                if param.grad is not None:
                    decay = self._buffer(index, 3, param.data)
                    np.multiply(param.data, self.lr * self.weight_decay, out=decay)
                    param.data -= decay
        decay, self.weight_decay = self.weight_decay, 0.0
        try:
            super().step()
        finally:
            self.weight_decay = decay


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton, 2012): divide by a running RMS of grads."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-2,
        alpha: float = 0.99,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay
        self._square_avg: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                decayed = self._buffer(index, 0, param.data)
                np.multiply(param.data, self.weight_decay, out=decayed)
                decayed += grad
                grad = decayed
            if self._square_avg[index] is None:
                self._square_avg[index] = np.zeros_like(param.data)
            avg = self._square_avg[index]
            scratch = self._buffer(index, 1, param.data)
            avg *= self.alpha
            np.multiply(grad, 1 - self.alpha, out=scratch)  # ((1−α)·grad)·grad
            scratch *= grad
            avg += scratch
            # (lr·grad) / (sqrt(avg) + eps), same evaluation order.
            update = self._buffer(index, 2, param.data)
            np.multiply(grad, self.lr, out=update)
            np.sqrt(avg, out=scratch)
            scratch += self.eps
            update /= scratch
            param.data -= update


def clip_grad_norm(
    parameters: Iterable[Parameter], max_norm: float, stack: Optional[int] = None
):
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    ``stack=K`` says the gradients carry a leading stack axis of K
    independent models: each slice is clipped against its own global
    norm, bit for bit what that model's lone clip does — a slice's
    squared sum is one contiguous row reduction (the same pairwise
    summation tree as the full-array sum), the per-parameter sums add up
    as python floats in parameter order, and only a slice over
    ``max_norm`` is scaled.  Returns the pre-clip norm (``stack=None``)
    or the list of per-slice pre-clip norms.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = [p for p in parameters if p.grad is not None]
    rows = 1 if stack is None else stack
    sums = [(p.grad ** 2).reshape(rows, -1).sum(axis=1) for p in params]
    totals: List[float] = []
    for index in range(rows):
        total = float(np.sqrt(sum(float(row[index]) for row in sums)))
        totals.append(total)
        if total > max_norm and total > 0:
            scale = max_norm / total
            for param in params:
                grad = param.grad if stack is None else param.grad[index]
                grad *= scale
    return totals[0] if stack is None else totals


class StepLR:
    """Multiply the optimizer's learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma


class CosineAnnealingLR:
    """Cosine decay from the initial rate to ``eta_min`` over ``t_max`` epochs.

    ``lr(t) = eta_min + (lr_0 − eta_min)·(1 + cos(π·t/t_max))/2``; epochs
    beyond ``t_max`` stay at ``eta_min``.
    """

    def __init__(
        self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0
    ) -> None:
        if t_max <= 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        if eta_min < 0:
            raise ValueError(f"eta_min must be non-negative, got {eta_min}")
        self.optimizer = optimizer
        self.t_max = t_max
        self.eta_min = eta_min
        self.base_lr = optimizer.lr
        self._epoch = 0

    def step(self) -> None:
        self._epoch += 1
        progress = min(self._epoch, self.t_max) / self.t_max
        self.optimizer.lr = self.eta_min + (
            self.base_lr - self.eta_min
        ) * (1.0 + np.cos(np.pi * progress)) / 2.0
