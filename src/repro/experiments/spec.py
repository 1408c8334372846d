"""Declarative scenario & experiment specs for the paper's artifacts.

Each paper artifact is a *scenario* (dataset × partition × attack ×
deletion × federation) crossed with *unlearning methods*:

* :class:`ScenarioSpec` — everything up to (but not including) the
  method: dataset → partition → attack/trigger → deletion → federation.
  A sweep derives each point with :func:`dataclasses.replace`.
* :func:`build_scenario` — turns a spec into a live :class:`Scenario`
  (simulation + deletion subset + validity instrument);
  ``attack.kind="none"`` plants nothing.
* :class:`ExperimentSpec` — an artifact's id and title, its scenario and
  its methods (names from :data:`repro.unlearning.protocols.METHODS`,
  checked when the spec is built); the loops in
  :mod:`repro.experiments.runner` execute it, and each takes its own
  knobs as arguments.

Specs deliberately hold *logical* knobs only; physical scale (sample
counts, rounds, client counts when unset) comes from the
:class:`~repro.experiments.scale.ExperimentScale` at build time, so one
spec reproduces at ``smoke``/``small``/``paper`` alike.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..data import (
    ArrayDataset,
    BackdoorAttack,
    FederatedDataset,
    TriggerPattern,
    make_dataset,
    make_federated,
    select_attack_target,
)
from ..data.synthetic import SPECS
from ..federated import FederatedSimulation
from ..federated.simulation import make_aggregator
from ..nn.models import RegistryModelFactory
from ..nn.module import Module
from ..runtime import BACKEND_ENV_VAR, BackendLike, parse_backend_spec
from ..training import TrainConfig, evaluate
from ..unlearning.protocols import METHODS
from .scale import ExperimentScale


@dataclass(frozen=True)
class DatasetSpec:
    """Which dataset, at what size (0 = take the scale preset's size).

    ``name`` may be a pseudo-dataset like ``cifar10_resnet`` (CIFAR-10
    data, ResNet model choice) — the builder maps it onto the real data
    key while model resolution keeps the pseudo-name.
    """

    name: str = "mnist"
    train_size: int = 0
    test_size: int = 0


@dataclass(frozen=True)
class PartitionSpec:
    """How training data is split across clients."""

    strategy: str = "iid"  # iid | heterogeneous


@dataclass(frozen=True)
class AttackSpec:
    """What contamination (the paper's validity instrument) is planted.

    ``kind="backdoor"`` stamps a pixel trigger and flips labels; ``"none"``
    plants nothing. ``target_label=None`` auto-selects the class with the
    least natural trigger affinity.
    """

    kind: str = "none"  # none | backdoor
    trigger_size: int = 7
    trigger_value: float = 6.0
    trigger_corner: str = "br"
    target_label: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "backdoor"):
            raise ValueError(f"unknown attack kind {self.kind!r}")

    def trigger(self) -> TriggerPattern:
        return TriggerPattern(
            size=self.trigger_size, value=self.trigger_value,
            corner=self.trigger_corner,
        )


@dataclass(frozen=True)
class DeletionSpec:
    """Which samples the deleting client asks to forget.

    A random local subset of ``rate`` × the *total* training data, as in
    the paper; an attack, if any, is planted on exactly this subset.
    """

    rate: float = 0.06
    client_id: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"deletion rate must be in (0, 1), got {self.rate}")


@dataclass(frozen=True)
class FederationSpec:
    """Federation shape (0 clients = take the scale preset's count)."""

    num_clients: int = 0
    aggregator: str = "fedavg"  # fedavg | fedavg_uniform | adaptive
    # None = auto: share client datasets into POSIX shared memory exactly
    # when the active backend pickles tasks to workers (pool / process),
    # so `--backend pool` experiments get zero-copy fan-out by default.
    share_datasets: Optional[bool] = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete scenario: dataset → partition → attack → deletion → federation."""

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    deletion: DeletionSpec = field(default_factory=DeletionSpec)
    federation: FederationSpec = field(default_factory=FederationSpec)
    model: str = ""  # "" = the scale preset's model for the dataset


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper artifact: its id and title, its scenario and its methods."""

    experiment_id: str
    title: str
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    methods: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        unknown = [name for name in self.methods if name not in METHODS]
        if unknown:
            raise ValueError(
                f"unknown unlearning methods {unknown}; available: {list(METHODS)}"
            )


# ----------------------------------------------------------------------
# The built scenario
# ----------------------------------------------------------------------


@dataclass
class Scenario:
    """Everything a deletion experiment needs, built from one spec.

    ``attack`` is ``None`` when ``attack.kind="none"`` and otherwise
    exposes ``success_rate(model, test_set)``.
    """

    sim: FederatedSimulation
    fed_data: FederatedDataset
    test_set: ArrayDataset
    attack: Optional[BackdoorAttack]
    poison_indices: np.ndarray  # local indices within the deleting client
    model_factory: Callable[[], Module]
    config: TrainConfig
    spec: ScenarioSpec

    @property
    def deletion_client_id(self) -> int:
        return self.spec.deletion.client_id

    def register_deletion(self) -> None:
        """File the deletion request for exactly the to-forget subset."""
        self.sim.clients[self.deletion_client_id].request_deletion(
            self.poison_indices
        )

    def evaluate(self, model: Module) -> Dict[str, float]:
        """Accuracy (%) plus attack success rate (%) when an attack exists."""
        _, acc = evaluate(model, self.test_set)
        metrics = {"acc": 100.0 * acc}
        if self.attack is not None:
            metrics["backdoor"] = 100.0 * self.attack.success_rate(
                model, self.test_set
            )
        return metrics


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


def _backend_pickles_tasks(backend: BackendLike) -> bool:
    """Whether the active backend ships tasks to other processes.

    Decides the ``share_datasets=None`` auto default: sharing buys
    zero-copy fan-out exactly when tasks leave the process (the pool
    pickles them over pipes).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "serial"
    if isinstance(backend, str):
        return parse_backend_spec(backend)[0] == "pool"
    from ..runtime.pool import PoolBackend

    return isinstance(backend, PoolBackend)


# Pseudo-datasets reuse another dataset's data under a different model
# choice (the paper's Fig 4d/5d CIFAR-10 + ResNet panels).
DATA_KEY_ALIASES = {"cifar10_resnet": "cifar10"}


def dataset_data_key(name: str) -> str:
    """The real data key behind a (possibly pseudo) dataset name."""
    return DATA_KEY_ALIASES.get(name, name)


def _make_attack(
    attack: AttackSpec, train_set: ArrayDataset
) -> Optional[BackdoorAttack]:
    if attack.kind == "none":
        return None
    trigger = attack.trigger()
    target = attack.target_label
    if target is None:
        target = select_attack_target(train_set, trigger)
    return BackdoorAttack(trigger, target_label=target)


def build_scenario(
    spec: ScenarioSpec,
    scale: ExperimentScale,
    seed: int = 0,
    backend: BackendLike = None,
) -> Scenario:
    """Build a live :class:`Scenario` from ``spec`` at ``scale``.

    The sequence (dataset → partition → deletion-subset selection →
    attack application → model/config → simulation) fixes the order in
    which RNG streams are drawn, so one seed builds one scenario.
    """
    dataset_key = dataset_data_key(spec.dataset.name)
    if dataset_key not in SPECS:
        raise ValueError(f"unknown dataset {spec.dataset.name!r}")
    train_set, test_set = make_dataset(
        dataset_key,
        train_size=spec.dataset.train_size or scale.train_size,
        test_size=spec.dataset.test_size or scale.test_size,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1000)
    num_clients = spec.federation.num_clients or scale.num_clients
    fed = make_federated(
        train_set, test_set, num_clients, rng,
        strategy=spec.partition.strategy,
    )

    client_id = spec.deletion.client_id
    if not 0 <= client_id < num_clients:
        raise ValueError(f"deletion client {client_id} out of range")
    local = fed.client_datasets[client_id]
    # The paper's "deleted data rate": rate × |total train| local indices.
    count = max(1, int(round(spec.deletion.rate * len(train_set))))
    if count >= len(local):
        raise ValueError(
            f"deletion rate {spec.deletion.rate} exceeds client "
            f"{client_id}'s local data ({count} >= {len(local)})"
        )
    delete_indices = np.sort(rng.choice(len(local), count, replace=False))

    attack = _make_attack(spec.attack, train_set)
    if attack is not None:
        fed.client_datasets[client_id] = attack.poison(local, delete_indices)

    resolved_model = spec.model or scale.model_for(spec.dataset.name)
    factory = model_factory_for(train_set, resolved_model)
    config = train_config(
        scale, learning_rate=scale.learning_rate_for(resolved_model)
    )

    share = spec.federation.share_datasets
    if share is None:
        share = _backend_pickles_tasks(backend)
    if share:
        fed = fed.share()

    aggregator = make_aggregator(
        spec.federation.aggregator, test_set=test_set, model_factory=factory
    )
    sim = FederatedSimulation(
        factory, fed, aggregator, config, seed=seed + 2000, backend=backend,
    )
    return Scenario(
        sim=sim,
        fed_data=fed,
        test_set=test_set,
        attack=attack,
        poison_indices=delete_indices,
        model_factory=factory,
        config=config,
        spec=spec,
    )
