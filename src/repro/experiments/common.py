"""Shared plumbing for the per-table/figure experiment runners.

The canonical workflow each experiment builds on:

1. :func:`build_backdoor_federation` — declare a backdoor
   :class:`~repro.experiments.spec.ScenarioSpec` and build it (dataset →
   partition → poison the to-be-deleted subset of client 0 — the paper's
   validity instrument).
2. :func:`pretrain` — run federated training to obtain the *origin* model
   (the teacher, contaminated by the backdoor).
3. :func:`run_unlearning_method` — run one registered method
   (:mod:`repro.unlearning.registry`) on the federation.
4. Snapshot/restore helpers so one expensive pretrain can be reused across
   every method being compared.

Both entry points are thin adapters now: scenario construction lives in
:mod:`repro.experiments.spec` and method dispatch in
:mod:`repro.unlearning.registry` — results are bit-identical to the
pre-spec code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..data import ArrayDataset, TriggerPattern
from ..federated import FederatedSimulation
from ..federated.state_math import StateDict
from ..nn.models import RegistryModelFactory
from ..nn.module import Module
from ..runtime import BackendLike
from ..training import TrainConfig
from ..unlearning import (
    GoldfishConfig,
    GoldfishLossConfig,
    UnlearnOutcome,
    make_unlearner,
)
from .scale import ExperimentScale
from .spec import (
    AttackSpec,
    DatasetSpec,
    DeletionSpec,
    FederationSpec,
    Scenario,
    ScenarioSpec,
    build_scenario,
)

# The paper's loss-weight configuration (Section IV-B).
PAPER_TEMPERATURE = 3.0
PAPER_MU_D = 1.0
PAPER_MU_C = 0.25

# Trigger calibrated so the origin model's attack success rate is high at
# reproduction scale.
DEFAULT_TRIGGER = TriggerPattern(size=7, value=6.0)


def model_factory_for(
    dataset: ArrayDataset, model_name: str, seed: int = 42
) -> Callable[[], Module]:
    """A zero-arg factory producing identically-initialised fresh models.

    Returns a picklable :class:`~repro.nn.models.RegistryModelFactory`
    rather than a closure, so the factory can travel inside runtime tasks
    to worker processes on any multiprocessing start method.
    """
    return RegistryModelFactory(
        name=model_name,
        num_classes=dataset.num_classes,
        in_channels=dataset.in_channels,
        image_size=dataset.image_size,
        seed=seed,
    )


def train_config(scale: ExperimentScale, **overrides) -> TrainConfig:
    """The scale's local-training hyper-parameters."""
    config = TrainConfig(
        epochs=scale.local_epochs,
        batch_size=scale.batch_size,
        learning_rate=scale.learning_rate,
        momentum=0.9,
    )
    return config.with_overrides(**overrides) if overrides else config


# The historical name: every pre-spec call site annotated against
# BackdoorFederation keeps working — the builder returns the same fields
# (sim, fed_data, test_set, attack, poison_indices, model_factory, config).
BackdoorFederation = Scenario


def backdoor_spec(
    dataset_name: str,
    deletion_rate: float,
    model_name: Optional[str] = None,
    trigger: TriggerPattern = DEFAULT_TRIGGER,
    target_label: Optional[int] = None,
    share: Optional[bool] = None,
) -> ScenarioSpec:
    """The canonical backdoor scenario as a declarative spec."""
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


def build_backdoor_federation(
    dataset_name: str,
    scale: ExperimentScale,
    deletion_rate: float,
    seed: int = 0,
    model_name: Optional[str] = None,
    trigger: TriggerPattern = DEFAULT_TRIGGER,
    target_label: Optional[int] = None,
    backend: BackendLike = None,
    share: Optional[bool] = None,
) -> BackdoorFederation:
    """Step 1 of the canonical workflow (see module docstring).

    ``deletion_rate`` is the paper's "deleted data rate": the poisoned
    subset size as a fraction of the *total* training data, all residing at
    client 0. ``backend`` selects the execution backend for every round of
    local training (see :mod:`repro.runtime`); results are identical
    across backends. ``share`` re-houses the client datasets in POSIX
    shared memory (``None`` = automatically, whenever the backend pickles
    tasks to workers — so ``--backend pool`` runs get zero-copy fan-out).

    This is a thin adapter: it declares a backdoor
    :class:`~repro.experiments.spec.ScenarioSpec` and hands it to the
    shared :class:`~repro.experiments.spec.ScenarioBuilder`.
    """
    spec = backdoor_spec(
        dataset_name,
        deletion_rate,
        model_name=model_name,
        trigger=trigger,
        target_label=target_label,
        share=share,
    )
    return build_scenario(spec, scale, seed=seed, backend=backend)


def pretrain(setup: BackdoorFederation, scale: ExperimentScale) -> Module:
    """Step 2: federated training producing the (backdoored) origin model."""
    setup.sim.run(scale.pretrain_rounds)
    return setup.sim.global_model()


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
    from ..unlearning import EarlyStopConfig

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


def run_unlearning_method(
    method: str,
    setup: BackdoorFederation,
    scale: ExperimentScale,
    config_override: Optional[GoldfishConfig] = None,
    backend: BackendLike = None,
    round_callback=None,
) -> UnlearnOutcome:
    """Step 3: run one unlearning flow on a federation with a pending deletion.

    ``method`` is any registered name (:func:`available_methods` — the
    paper's ``ours``/``b1``/``b2``/``b3`` plus aliases like ``goldfish``).
    ``backend`` overrides the simulation's execution backend for this flow
    only (``None`` keeps whatever the simulation was built with).
    """
    options = {}
    if config_override is not None:
        options["config"] = config_override
    elif method in ("ours", "goldfish"):
        options["config"] = goldfish_config(scale, train=setup.config)
    unlearner = make_unlearner(
        method, train_config=setup.config, num_rounds=scale.unlearn_rounds,
        **options,
    )
    if unlearner.requires_history:
        raise ValueError(
            f"method {method!r} needs server round history; run it through "
            "repro.experiments.runner (efficiency/matrix kinds) instead"
        )
    return unlearner.unlearn(
        setup.sim, backend=backend, round_callback=round_callback
    )


def evaluate_model(model: Module, setup: BackdoorFederation) -> Dict[str, float]:
    """Accuracy (%) and attack success rate (%) — the tables' two columns.

    Delegates to :meth:`Scenario.evaluate`; scenarios without an attack
    (clean deletion) report ``backdoor`` as 0 so table shapes stay fixed.
    """
    return {"backdoor": 0.0, **setup.evaluate(model)}
