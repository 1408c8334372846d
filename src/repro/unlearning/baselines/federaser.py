"""FedEraser — client-level unlearning by calibrated update replay.

After Liu et al., "FederaSer: Enabling Efficient Client-Level Data Removal
from Federated Learning Models", IWQoS 2021 (the paper's reference [24]).

FedEraser removes an entire client's contribution without retraining from
scratch. The server retained every round's client uploads in a
:class:`~repro.federated.history.RoundHistoryStore`. Unlearning then
replays history with the target client excluded:

1. Start the *calibrated* global model from the federation's initial state.
2. For every stored round, each **remaining** client runs a few cheap
   calibration epochs from the current calibrated model, producing a new
   update direction.
3. The new direction is rescaled to the **norm of that client's original
   update** in the stored round (per parameter tensor) — the original
   updates carry the step *magnitude*, the calibration run supplies the
   corrected *direction* that no longer reflects the erased client.
4. Calibrated updates are size-weight aggregated and applied; repeat.

This trades extra server storage (see ``RoundHistoryStore.storage_report``)
for far fewer local epochs than full retraining: with ``calibration
epochs ≪ original local epochs``, the replay cost is a small fraction of
B1's.

This is *client-level* unlearning: the whole target client is forgotten.
For sample-level deletion within a client, use Goldfish or the B1/B2/B3
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from ...data.dataset import ArrayDataset
from ...federated import state_math
from ...federated.history import RoundHistoryStore, RoundSnapshot
from ...federated.state_math import StateDict
from ...nn.module import Module
from ...training.config import TrainConfig
from ...training.trainer import train


@dataclass(frozen=True)
class FedEraserConfig:
    """Hyper-parameters of the calibration replay."""

    calibration_epochs: int = 1
    learning_rate: float = 0.01
    batch_size: int = 100
    momentum: float = 0.9

    def __post_init__(self) -> None:
        if self.calibration_epochs < 1:
            raise ValueError(
                f"calibration_epochs must be >= 1, got {self.calibration_epochs}"
            )
        self.train_config()  # TrainConfig checks the training knobs

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.calibration_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
        )


@dataclass
class FedEraserReport:
    """What the replay did, for efficiency accounting."""

    rounds_replayed: int
    clients_per_round: List[int] = field(default_factory=list)
    calibration_epochs_run: int = 0


def _calibrate_update(
    original_update: StateDict, new_update: StateDict
) -> StateDict:
    """Per-tensor: original norm × new direction (FedEraser's Eq. core).

    Tensors where the new update is numerically zero keep the zero (there
    is no direction to rescale); tensors where the original update was
    zero contribute nothing, matching "no historical magnitude".
    """
    calibrated: StateDict = {}
    for key in original_update:
        old = original_update[key]
        new = new_update[key]
        old_norm = float(np.linalg.norm(old))
        new_norm = float(np.linalg.norm(new))
        if new_norm == 0.0 or old_norm == 0.0:
            calibrated[key] = np.zeros_like(old)
        else:
            calibrated[key] = new * (old_norm / new_norm)
    return calibrated


class FedEraser:
    """Replay-based client-level unlearning over a stored round history.

    Parameters
    ----------
    model_factory:
        Produces fresh models with the federation's architecture.
    config:
        Calibration-run hyper-parameters (few epochs, by design).
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        config: FedEraserConfig = FedEraserConfig(),
    ) -> None:
        self.model_factory = model_factory
        self.config = config

    def unlearn(
        self,
        history: RoundHistoryStore,
        initial_state: StateDict,
        client_datasets: Sequence[ArrayDataset],
        forget_client_id: int,
        rng: np.random.Generator,
    ) -> tuple[StateDict, FedEraserReport]:
        """Erase ``forget_client_id`` and return the calibrated global state.

        ``client_datasets[i]`` must be client ``i``'s local data (the
        remaining clients re-run short calibration passes on it).
        """
        if len(history) == 0:
            raise ValueError("history store is empty; nothing to replay")
        participated = {
            cid for snapshot in history.snapshots for cid in snapshot.client_ids
        }
        if forget_client_id not in participated:
            raise ValueError(
                f"client {forget_client_id} never appears in the stored "
                f"history (participants: {sorted(participated)})"
            )

        train_config = self.config.train_config()
        calibrated_global = {k: v.copy() for k, v in initial_state.items()}
        report = FedEraserReport(rounds_replayed=0)
        model = self.model_factory()

        for snapshot in history.snapshots:
            remaining = [
                cid for cid in snapshot.client_ids if cid != forget_client_id
            ]
            if not remaining:
                # A round where only the erased client participated adds no
                # retainable knowledge; skip it entirely.
                continue
            calibrated_updates: List[StateDict] = []
            weights: List[float] = []
            for cid in remaining:
                if cid >= len(client_datasets):
                    raise IndexError(
                        f"no dataset supplied for client {cid} "
                        f"(got {len(client_datasets)} datasets)"
                    )
                model.load_state_dict(calibrated_global)
                train(model, client_datasets[cid], train_config, rng)
                report.calibration_epochs_run += self.config.calibration_epochs
                new_update = state_math.subtract(
                    model.state_dict(), calibrated_global
                )
                original_update = snapshot.client_update(cid)
                calibrated_updates.append(
                    _calibrate_update(original_update, new_update)
                )
                weights.append(float(snapshot.client_sizes[cid]))
            total = sum(weights)
            aggregated = state_math.weighted_sum(
                calibrated_updates, [w / total for w in weights]
            )
            calibrated_global = state_math.add(calibrated_global, aggregated)
            report.rounds_replayed += 1
            report.clients_per_round.append(len(remaining))

        return calibrated_global, report
