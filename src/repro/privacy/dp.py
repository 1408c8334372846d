"""Gaussian mechanism, L2 clipping and zCDP accounting.

Implements the textbook components needed for DP-style unlearning
certification:

* **Clipping** bounds the L2 sensitivity of a released vector/state.
* The **Gaussian mechanism** (Dwork & Roth) adds ``N(0, σ²)`` noise with
  ``σ = Δ₂ · sqrt(2 ln(1.25/δ)) / ε`` for (ε, δ)-DP at sensitivity Δ₂.
* **zCDP accounting** (Bun & Steinke 2016): one Gaussian release at scale
  σ and sensitivity Δ₂ costs ``ρ = Δ₂² / (2σ²)``; ρ composes additively and
  converts to (ε, δ) via ``ε = ρ + 2·sqrt(ρ · ln(1/δ))``.

These are exact formulas, not simulations — the accountant's outputs are
valid DP guarantees for the mechanisms as implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

StateDict = Dict[str, np.ndarray]


# ----------------------------------------------------------------------
# Clipping (sensitivity control)
# ----------------------------------------------------------------------
def clip_vector_by_l2(vector: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale ``vector`` down to L2 norm ``max_norm`` if it exceeds it."""
    if not (math.isfinite(max_norm) and max_norm > 0):
        raise ValueError(f"max_norm must be positive and finite, got {max_norm}")
    norm = float(np.linalg.norm(vector))
    if norm <= max_norm or norm == 0.0:
        return vector.copy()
    return vector * (max_norm / norm)


def clip_state_by_l2(state: StateDict, max_norm: float) -> StateDict:
    """Clip a model state treated as one concatenated parameter vector."""
    if not (math.isfinite(max_norm) and max_norm > 0):
        raise ValueError(f"max_norm must be positive and finite, got {max_norm}")
    total_sq = sum(float((value ** 2).sum()) for value in state.values())
    norm = math.sqrt(total_sq)
    if norm <= max_norm or norm == 0.0:
        return {key: value.copy() for key, value in state.items()}
    factor = max_norm / norm
    return {key: value * factor for key, value in state.items()}


# ----------------------------------------------------------------------
# Gaussian mechanism
# ----------------------------------------------------------------------
def gaussian_sigma(epsilon: float, delta: float, sensitivity: float) -> float:
    """Noise scale of the classic Gaussian mechanism.

    ``σ = Δ₂ · sqrt(2 ln(1.25/δ)) / ε`` — valid for ε ∈ (0, 1]; for larger
    ε this remains a (conservative) upper bound and we allow it with the
    caveat documented here.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not (math.isfinite(sensitivity) and sensitivity >= 0):
        raise ValueError(f"sensitivity must be non-negative and finite, got {sensitivity}")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def add_gaussian_noise(
    state: StateDict, sigma: float, rng: np.random.Generator
) -> StateDict:
    """Add iid ``N(0, σ²)`` noise to every parameter of ``state``."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be non-negative and finite, got {sigma}")
    if sigma == 0.0:
        return {key: value.copy() for key, value in state.items()}
    return {
        key: value + rng.normal(0.0, sigma, size=value.shape).astype(value.dtype)
        for key, value in state.items()
    }


# ----------------------------------------------------------------------
# zCDP accounting
# ----------------------------------------------------------------------
def zcdp_rho(sensitivity: float, sigma: float) -> float:
    """zCDP cost ρ of one Gaussian release: ``Δ₂² / (2σ²)``."""
    if not (math.isfinite(sensitivity) and sensitivity >= 0):
        raise ValueError(f"sensitivity must be non-negative and finite, got {sensitivity}")
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return (sensitivity ** 2) / (2.0 * sigma ** 2)


def rho_to_epsilon(rho: float, delta: float) -> float:
    """Convert accumulated zCDP ρ to ε at the given δ."""
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"rho must be non-negative and finite, got {rho}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


@dataclass(frozen=True)
class GaussianMechanism:
    """A configured Gaussian release: clip to ``max_norm``, add noise.

    ``sigma`` may be given directly or derived from an (ε, δ) target via
    :meth:`for_budget`.
    """

    max_norm: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.max_norm) and self.max_norm > 0):
            raise ValueError(f"max_norm must be positive and finite, got {self.max_norm}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma}")

    @classmethod
    def for_budget(
        cls, epsilon: float, delta: float, max_norm: float
    ) -> "GaussianMechanism":
        """Mechanism achieving (ε, δ)-DP for one release at this clip norm."""
        return cls(max_norm=max_norm, sigma=gaussian_sigma(epsilon, delta, max_norm))

    def release(self, state: StateDict, rng: np.random.Generator) -> StateDict:
        """Clip then perturb ``state``; the DP-safe output."""
        return add_gaussian_noise(clip_state_by_l2(state, self.max_norm), self.sigma, rng)

    @property
    def rho(self) -> float:
        """zCDP cost of one release (0 when σ = 0 is impossible: σ > 0 required)."""
        return zcdp_rho(self.max_norm, self.sigma)


@dataclass
class PrivacyAccountant:
    """Accumulates zCDP over a sequence of Gaussian releases.

    Usage::

        accountant = PrivacyAccountant(delta=1e-5)
        accountant.spend(mechanism.rho)
        epsilon = accountant.epsilon()
    """

    delta: float
    _rhos: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")

    def spend(self, rho: float) -> None:
        if not (math.isfinite(rho) and rho >= 0):
            raise ValueError(f"rho must be non-negative and finite, got {rho}")
        self._rhos.append(rho)

    @property
    def total_rho(self) -> float:
        return float(sum(self._rhos))

    @property
    def num_releases(self) -> int:
        return len(self._rhos)

    def epsilon(self) -> float:
        """Current (ε, self.delta) guarantee under zCDP composition."""
        return rho_to_epsilon(self.total_rho, self.delta)
