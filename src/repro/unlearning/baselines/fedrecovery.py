"""FedRecovery — unlearning by gradient-residual subtraction.

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
   analysis calls for).

The TIFS paper then adds Gaussian noise calibrated to the subtraction so
the release is (ε, δ)-indistinguishable from a retrained model.  This
implementation releases the noiseless subtraction — the variant the
efficiency comparison runs, so accuracy is comparable across methods.

Unlike FedEraser this needs **no client cooperation**: unlearning is a pure
server-side computation, the cheapest point in the design space, at the
cost of an approximation (subtraction assumes contributions compose
additively, which holds exactly only for one aggregation step).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ...federated import state_math
from ...federated.history import RoundHistoryStore
from ...federated.state_math import StateDict


@dataclass
class FedRecoveryReport:
    """Diagnostics of one FedRecovery unlearning call."""

    rounds_used: int
    residual_weights: List[float]
    influence_l2: float


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
    """Server-side client-level unlearning by residual-weighted subtraction."""

    def unlearn(
        self,
        history: RoundHistoryStore,
        final_global: StateDict,
        forget_client_id: int,
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

        influence_l2 = float(
            np.sqrt(sum(float((v ** 2).sum()) for v in influence.values()))
        )

        report = FedRecoveryReport(
            rounds_used=len(target_rounds),
            residual_weights=weights,
            influence_l2=influence_l2,
        )
        return state_math.subtract(final_global, influence), report
