"""FedRecovery — unlearning by gradient-residual subtraction + DP noise.

After Zhang et al., "FedRecovery: Differentially Private Machine Unlearning
for Federated Learning Frameworks", IEEE TIFS 2023 — the method behind the
paper's baseline **B1 citation [23]** for the "statistical
indistinguishability" framing of unlearning.

Idea: the server retained each round's client uploads. A target client's
influence on the final global model is (approximately) the weighted sum of
its per-round contributions. FedRecovery

1. computes the target client's contribution per stored round
   (its aggregation-weighted model delta),
2. subtracts a *residual-weighted* combination of those contributions from
   the final global model — rounds with larger global movement (larger
   gradient residual ``‖F_i − F_{i−1}‖``) carry proportionally more of the
   client's imprint and receive proportionally larger weight
   ``p_i = ‖r_i‖² / Σ_j ‖r_j‖²`` (the weights sum to 1: per-round
   contributions are highly correlated, so subtracting their weighted
   average — not their sum, which overshoots — is what the TIFS paper's
   analysis calls for),
3. adds Gaussian noise calibrated to the subtraction's magnitude so the
   released model is (ε, δ)-indistinguishable from a retrained one.

Implementation note (documented substitution): the TIFS paper derives its
noise scale from Lipschitz-smoothness bounds of the empirical loss; those
constants are unavailable for an arbitrary model, so we bound sensitivity
by the **L2 norm of the subtracted influence** (clipped), which preserves
the mechanism's structure — noise proportional to how much was removed —
and yields exact (ε, δ) guarantees for the release as implemented.

Unlike FedEraser this needs **no client cooperation**: unlearning is a pure
server-side computation, the cheapest point in the design space, at the
cost of an approximation (subtraction assumes contributions compose
additively, which holds exactly only for one aggregation step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ...federated import state_math
from ...federated.history import RoundHistoryStore
from ...federated.state_math import StateDict
from ...privacy.dp import add_gaussian_noise, clip_state_by_l2, gaussian_sigma


@dataclass(frozen=True)
class FedRecoveryConfig:
    """Privacy and subtraction knobs."""

    epsilon: float = 5.0
    delta: float = 1e-5
    influence_clip: Optional[float] = None  # None = no clipping
    noise_enabled: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.influence_clip is not None and not (
            math.isfinite(self.influence_clip) and self.influence_clip > 0
        ):
            raise ValueError(
                f"influence_clip must be positive and finite, got {self.influence_clip}"
            )


@dataclass
class FedRecoveryReport:
    """Diagnostics of one FedRecovery unlearning call."""

    rounds_used: int
    residual_weights: List[float]
    influence_l2: float
    sigma: float


def _residual_weights(history: RoundHistoryStore) -> List[float]:
    """``p_i ∝ ‖F_i − F_{i−1}‖²`` over stored rounds, normalised to sum 1.

    Rounds without a recorded ``global_after`` fall back to the distance
    between consecutive ``global_before`` states.
    """
    norms: List[float] = []
    for snapshot in history.snapshots:
        after = snapshot.global_after
        if after is None:
            after = snapshot.client_states[snapshot.client_ids[0]]
        norms.append(state_math.l2_distance(after, snapshot.global_before))
    squared = np.asarray(norms, dtype=np.float64) ** 2
    total = float(squared.sum())
    if total == 0.0:
        # Degenerate: the global model never moved. Uniform weights.
        return [1.0 / len(norms)] * len(norms)
    return [float(s / total) for s in squared]


class FedRecovery:
    """Server-side client-level unlearning with a DP release."""

    def __init__(self, config: FedRecoveryConfig = FedRecoveryConfig()) -> None:
        self.config = config

    def unlearn(
        self,
        history: RoundHistoryStore,
        final_global: StateDict,
        forget_client_id: int,
        rng: np.random.Generator,
    ) -> tuple[StateDict, FedRecoveryReport]:
        """Remove ``forget_client_id``'s influence from ``final_global``."""
        if len(history) == 0:
            raise ValueError("history store is empty; nothing to subtract")
        target_rounds = history.rounds_with_client(forget_client_id)
        if not target_rounds:
            raise ValueError(
                f"client {forget_client_id} never appears in the stored history"
            )

        weights = _residual_weights(history)
        weight_by_round = {
            snapshot.round_index: weight
            for snapshot, weight in zip(history.snapshots, weights)
        }

        influence = state_math.zeros_like(final_global)
        for snapshot in target_rounds:
            total_samples = sum(snapshot.client_sizes.values())
            aggregation_share = snapshot.client_sizes[forget_client_id] / total_samples
            contribution = state_math.scale(
                snapshot.client_update(forget_client_id), aggregation_share
            )
            round_weight = weight_by_round[snapshot.round_index]
            influence = state_math.add(
                influence, state_math.scale(contribution, round_weight)
            )

        if self.config.influence_clip is not None:
            influence = clip_state_by_l2(influence, self.config.influence_clip)
        influence_l2 = float(
            np.sqrt(sum(float((v ** 2).sum()) for v in influence.values()))
        )

        unlearned = state_math.subtract(final_global, influence)

        sigma = 0.0
        if self.config.noise_enabled and influence_l2 > 0.0:
            sigma = gaussian_sigma(
                self.config.epsilon, self.config.delta, influence_l2
            )
            unlearned = add_gaussian_noise(unlearned, sigma, rng)

        report = FedRecoveryReport(
            rounds_used=len(target_rounds),
            residual_weights=weights,
            influence_l2=influence_l2,
            sigma=sigma,
        )
        return unlearned, report
