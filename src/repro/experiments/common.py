"""Shared pieces of the paper's artifacts.

* :func:`backdoor_spec` — the canonical backdoor
  :class:`~repro.experiments.spec.ScenarioSpec`: client 0's to-be-deleted
  subset carries a pixel trigger (the paper's validity instrument).
* :func:`goldfish_config` — the paper's Goldfish configuration at a scale.
* :class:`SimulationSnapshot` — restorable capture of a pretrained
  simulation, so one pretrain serves every method being compared.

:mod:`repro.experiments.runner` builds and pretrains a scenario
(``prepare``) and runs one unlearning method on it by name
(``run_method``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..data import ArrayDataset, TriggerPattern
from ..federated import FederatedSimulation
from ..federated.state_math import StateDict
from ..training import TrainConfig
from ..unlearning import EarlyStopConfig, GoldfishConfig, GoldfishLossConfig
from .scale import ExperimentScale
from .spec import (
    AttackSpec,
    DatasetSpec,
    DeletionSpec,
    FederationSpec,
    ScenarioSpec,
    train_config,
)

# The paper's loss-weight configuration (Section IV-B).
PAPER_TEMPERATURE = 3.0
PAPER_MU_D = 1.0
PAPER_MU_C = 0.25

# Trigger calibrated so the origin model's attack success rate is high at
# reproduction scale.
DEFAULT_TRIGGER = TriggerPattern(size=7, value=6.0)


def backdoor_spec(
    dataset_name: str,
    deletion_rate: float,
    model_name: Optional[str] = None,
    trigger: TriggerPattern = DEFAULT_TRIGGER,
    target_label: Optional[int] = None,
    share: Optional[bool] = None,
) -> ScenarioSpec:
    """The canonical backdoor scenario as a declarative spec.

    ``deletion_rate`` is the paper's "deleted data rate": the poisoned
    subset size as a fraction of the *total* training data, all residing
    at client 0. ``share`` re-houses the client datasets in POSIX shared
    memory (``None`` = whenever the backend pickles tasks to workers).
    """
    return ScenarioSpec(
        dataset=DatasetSpec(name=dataset_name),
        attack=AttackSpec(
            kind="backdoor",
            trigger_size=trigger.size,
            trigger_value=trigger.value,
            trigger_corner=trigger.corner,
            target_label=target_label,
        ),
        deletion=DeletionSpec(rate=deletion_rate),
        federation=FederationSpec(share_datasets=share),
        model=model_name or "",
    )


@dataclass
class SimulationSnapshot:
    """Restorable capture of a simulation: model states *and* client data.

    Unlearning flows finalize deletions (physically dropping D_f from the
    client), so re-running a second method from the same pretrained state
    requires restoring the datasets as well.
    """

    server_state: StateDict
    client_states: List[StateDict]
    client_datasets: List[ArrayDataset]

    @classmethod
    def capture(cls, sim: FederatedSimulation) -> "SimulationSnapshot":
        return cls(
            server_state=sim.server.global_state,
            client_states=[client.model.state_dict() for client in sim.clients],
            client_datasets=[client.dataset for client in sim.clients],
        )

    def restore(self, sim: FederatedSimulation) -> None:
        sim.server.model.load_state_dict(self.server_state)
        for client, state, dataset in zip(
            sim.clients, self.client_states, self.client_datasets
        ):
            client.model.load_state_dict(state)
            client.dataset = dataset
            client.forget_indices = None


def goldfish_config(
    scale: ExperimentScale,
    *,
    temperature: float = PAPER_TEMPERATURE,
    mu_c: float = PAPER_MU_C,
    mu_d: float = PAPER_MU_D,
    hard_loss: str = "cross_entropy",
    use_confusion: bool = True,
    use_distillation: bool = True,
    adaptive_temperature: bool = False,
    early_stop=None,
    train: Optional[TrainConfig] = None,
) -> GoldfishConfig:
    """The paper's Goldfish configuration at the given scale.

    ``train`` overrides the SGD hyper-parameters (used by experiments whose
    architecture needs a non-default learning rate, e.g. the ResNets).
    """
    return GoldfishConfig(
        loss=GoldfishLossConfig(
            temperature=temperature,
            mu_c=mu_c,
            mu_d=mu_d,
            hard_loss=hard_loss,
            use_confusion=use_confusion,
            use_distillation=use_distillation,
        ),
        train=train or train_config(scale),
        early_stop=early_stop or EarlyStopConfig(enabled=False),
        adaptive_temperature=adaptive_temperature,
    )
