"""Declarative scenario & experiment specs: one spec, every experiment.

The paper's evaluation is a matrix of *scenarios* (dataset × partition ×
attack × deletion × federation) crossed with *unlearning methods*. This
module makes the scenario axis declarative:

* :class:`ScenarioSpec` — a serializable description of everything up to
  (but not including) the method: dataset → partition → attack/trigger →
  deletion → federation. ``to_dict``/``from_dict`` round-trip through
  JSON; :meth:`ScenarioSpec.hash` is a stable content hash (identical
  across processes and platforms) stamped into every
  :class:`~repro.experiments.results.ExperimentResult` for provenance.
* :class:`ScenarioBuilder` — turns a spec into a live :class:`Scenario`
  (simulation + deletion requests + validity instrument). It generalises
  the historical ``build_backdoor_federation``: the backdoor path is
  RNG-for-RNG identical to the old code, and non-backdoor scenarios
  (label-flip poisoning, clean per-client deletion, per-class deletion)
  are *spec declarations*, not new modules.
* :class:`ExperimentSpec` — a scenario plus methods plus runner ``kind``
  and parameters; :mod:`repro.experiments.runner` executes these.
* :data:`SCENARIO_PRESETS` — named scenarios for the CLI matrix driver
  (``--scenario label_flip --method ours,b1 --sweep deletion.rate=...``).

Specs deliberately hold *logical* knobs only; physical scale (sample
counts, rounds, client counts when unset) comes from the
:class:`~repro.experiments.scale.ExperimentScale` at build time, so one
spec reproduces at ``smoke``/``small``/``paper`` alike.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ..data import (
    ArrayDataset,
    BackdoorAttack,
    FederatedDataset,
    LabelFlipAttack,
    TriggerPattern,
    make_dataset,
    make_federated,
    select_attack_target,
    select_flip_target,
)
from ..data.synthetic import SPECS
from ..federated import FederatedSimulation
from ..federated.simulation import make_aggregator
from ..nn.module import Module
from ..runtime import BACKEND_ENV_VAR, BackendLike, parse_backend_spec
from ..training import TrainConfig, evaluate
from ..unlearning.registry import ClientDeletionRequest
from .scale import ExperimentScale

# ----------------------------------------------------------------------
# Spec dataclasses (all serializable, all hashable-by-content)
# ----------------------------------------------------------------------


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

    strategy: str = "iid"  # iid | size_skewed | label_skewed | heterogeneous
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class AttackSpec:
    """What contamination (the paper's validity instrument) is planted.

    ``kind="backdoor"`` stamps a pixel trigger and flips labels;
    ``"label_flip"`` flips labels only; ``"none"`` plants nothing (clean
    deletion scenarios). ``target_label=None`` auto-selects: the class
    with least natural trigger affinity (backdoor) or the rarest class
    (label flip).
    """

    kind: str = "none"  # none | backdoor | label_flip
    trigger_size: int = 7
    trigger_value: float = 6.0
    trigger_corner: str = "br"
    target_label: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "backdoor", "label_flip"):
            raise ValueError(f"unknown attack kind {self.kind!r}")

    def trigger(self) -> TriggerPattern:
        return TriggerPattern(
            size=self.trigger_size, value=self.trigger_value,
            corner=self.trigger_corner,
        )


@dataclass(frozen=True)
class DeletionSpec:
    """Which samples the deleting client asks to forget.

    ``selector="attacked"`` deletes exactly the attacked subset (rate of
    the *total* training data, as in the paper); ``"random"`` deletes a
    clean random subset at the same rate; ``"class"`` deletes every local
    sample of ``target_class`` (``None`` = the client's rarest class).
    """

    selector: str = "attacked"  # attacked | random | class
    rate: float = 0.06
    client_id: int = 0
    target_class: Optional[int] = None

    def __post_init__(self) -> None:
        if self.selector not in ("attacked", "random", "class"):
            raise ValueError(f"unknown deletion selector {self.selector!r}")
        if self.selector != "class" and not 0.0 < self.rate < 1.0:
            raise ValueError(f"deletion rate must be in (0, 1), got {self.rate}")


@dataclass(frozen=True)
class CompressionSpec:
    """Which :mod:`~repro.runtime.codec` update codec client returns use.

    ``"raw"`` (default) is the historical dense-state return, bit for
    bit; ``"delta"`` is lossless by construction (XOR + deflate against
    the broadcast basis); ``"topk:<frac>"`` and ``"quant:<bits>"`` are
    the opt-in lossy compressors (deterministic per seed).  Sweepable
    through the matrix driver as ``federation.compression.codec``.
    """

    codec: str = "raw"

    def __post_init__(self) -> None:
        from ..runtime import get_codec

        get_codec(self.codec)  # fail fast on typos, before any training


@dataclass(frozen=True)
class FederationSpec:
    """Federation shape (0 clients = take the scale preset's count).

    ``async_mode`` switches the built simulation from the synchronous
    barrier loop to the event-driven engine
    (:mod:`repro.federated.engine`): ``buffer_size`` updates are folded
    per aggregation event (0 = everything in flight), updates staler than
    ``max_staleness`` folds are discarded, and clients whose simulated
    latency exceeds ``straggler_timeout`` are dropped from the round and
    resampled next round (0 = no timeout).  Sync specs
    (``async_mode=False``, the default) build what they always built,
    bit for bit.

    ``compression`` selects the update codec for client returns (see
    :class:`CompressionSpec`); byte counts per round land in
    :class:`~repro.federated.simulation.RoundRecord` and run totals in
    the result's ``runtime["transport"]`` provenance.

    ``vectorize`` opts into client-vectorized execution
    (:mod:`repro.federated.vectorized`): eligible homogeneous cohorts
    train as one stacked forward/backward per round-step, bit-identically;
    ineligible cohorts fall back per client with the reason recorded in
    the result's ``runtime["vectorize"]`` provenance.  Sweepable through
    the matrix driver as ``federation.vectorize``.
    """

    num_clients: int = 0
    aggregator: str = "fedavg"  # fedavg | fedavg_uniform | adaptive
    # None = auto: share client datasets into POSIX shared memory exactly
    # when the active backend pickles tasks to workers (pool / process),
    # so `--backend pool` experiments get zero-copy fan-out by default.
    share_datasets: Optional[bool] = None
    async_mode: bool = False
    buffer_size: int = 0
    max_staleness: int = 4
    straggler_timeout: float = 0.0
    compression: CompressionSpec = field(default_factory=CompressionSpec)
    vectorize: bool = False

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FederationSpec":
        data = dict(payload)
        compression = data.pop("compression", None)
        if compression is None:
            compression = CompressionSpec()
        elif isinstance(compression, Mapping):
            compression = CompressionSpec(**compression)
        elif not isinstance(compression, CompressionSpec):
            raise ValueError(
                f"federation.compression must be a mapping like "
                f"{{'codec': 'delta'}}, got {compression!r} — did you mean "
                "federation.compression.codec?"
            )
        return cls(**data, compression=compression)


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete scenario: dataset → partition → attack → deletion → federation."""

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    deletion: DeletionSpec = field(default_factory=DeletionSpec)
    federation: FederationSpec = field(default_factory=FederationSpec)
    model: str = ""  # "" = the scale preset's model for the dataset

    def __post_init__(self) -> None:
        if self.attack.kind != "none" and self.deletion.selector == "random":
            raise ValueError(
                "selector='random' deletes a subset unrelated to the attack; "
                "use selector='attacked' so the validity instrument tracks "
                "the deleted data, or attack kind='none'"
            )

    # ------------------------------------------------------------------
    # Serialization & hashing
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        payload = asdict(self)
        payload["partition"]["options"] = dict(self.partition.options)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        return cls(
            dataset=DatasetSpec(**payload.get("dataset", {})),
            partition=PartitionSpec(**payload.get("partition", {})),
            attack=AttackSpec(**payload.get("attack", {})),
            deletion=DeletionSpec(**payload.get("deletion", {})),
            federation=FederationSpec.from_dict(payload.get("federation", {})),
            model=payload.get("model", ""),
        )

    def hash(self) -> str:
        return spec_hash(self.to_dict())

    def with_overrides(self, **dotted: Any) -> "ScenarioSpec":
        """A copy with dotted-path overrides applied.

        ``spec.with_overrides(**{"deletion.rate": 0.12,
        "federation.num_clients": 10})`` — the sweep primitive of the CLI
        matrix driver. Top-level field names work too (``model="lenet5"``).
        """
        payload = self.to_dict()
        for path, value in dotted.items():
            target = payload
            *parents, leaf = path.split(".")
            for key in parents:
                if key not in target or not isinstance(target[key], dict):
                    raise ValueError(f"unknown spec path {path!r}")

                target = target[key]
            if leaf not in target:
                raise ValueError(f"unknown spec path {path!r}")
            target[leaf] = value
        return ScenarioSpec.from_dict(payload)


def spec_hash(payload: Mapping[str, Any]) -> str:
    """Stable content hash of a JSON-serializable mapping.

    Canonical JSON (sorted keys, no whitespace drift) through SHA-256,
    truncated to 12 hex chars — identical across processes, platforms and
    Python hash randomisation, so results produced anywhere can be joined
    on it.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                           default=_json_default)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _json_default(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"not JSON-serializable: {value!r}")


def _canonical_params(value: Any) -> Any:
    """Recursively turn tuples into lists so round-trips compare equal."""
    if isinstance(value, (tuple, list)):
        return [_canonical_params(item) for item in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical_params(v) for k, v in value.items()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass(frozen=True)
class ExperimentSpec:
    """A scenario crossed with methods, plus how to report it.

    ``kind`` names a loop in :mod:`repro.experiments.runner` (rate_table,
    retrain_curves, divergence, goldfish_variants, efficiency,
    certification, shard_convergence, shard_deletion, aggregation,
    matrix); ``params`` carries the kind-specific knobs (rates,
    checkpoints, shard counts, …) with empty/zero meaning "take the scale
    preset's value". Everything is JSON-serializable, so the whole
    experiment — not just the scenario — round-trips and hashes.
    """

    experiment_id: str
    title: str
    kind: str
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    methods: Tuple[str, ...] = ()
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "params", _canonical_params(self.params))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "kind": self.kind,
            "scenario": self.scenario.to_dict(),
            "methods": list(self.methods),
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload.get("title", ""),
            kind=payload["kind"],
            scenario=ScenarioSpec.from_dict(payload.get("scenario", {})),
            methods=tuple(payload.get("methods", ())),
            params=dict(payload.get("params", {})),
        )

    def hash(self) -> str:
        return spec_hash(self.to_dict())

    def evolve(self, **changes: Any) -> "ExperimentSpec":
        return replace(self, **changes)


# ----------------------------------------------------------------------
# The built scenario
# ----------------------------------------------------------------------


@dataclass
class Scenario:
    """Everything a deletion experiment needs, built from one spec.

    Field names deliberately match the historical ``BackdoorFederation``
    (which is now an alias of this class), so all pre-spec call sites keep
    working: ``attack`` is ``None`` for clean-deletion scenarios and
    otherwise exposes ``success_rate(model, test_set)``.
    """

    sim: FederatedSimulation
    fed_data: FederatedDataset
    test_set: ArrayDataset
    attack: Optional[Any]  # BackdoorAttack | LabelFlipAttack | None
    poison_indices: np.ndarray  # local indices within the deleting client
    model_factory: Callable[[], Module]
    config: TrainConfig
    spec: Optional[ScenarioSpec] = None

    @property
    def deletion_client_id(self) -> int:
        return self.spec.deletion.client_id if self.spec is not None else 0

    def register_deletion(self) -> None:
        """File the deletion request for exactly the to-forget subset."""
        self.sim.clients[self.deletion_client_id].request_deletion(
            self.poison_indices
        )

    def deletion_requests(self) -> Tuple[ClientDeletionRequest, ...]:
        """The pending deletions as registry-shaped requests."""
        return (
            ClientDeletionRequest.of(self.deletion_client_id, self.poison_indices),
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


class ScenarioBuilder:
    """Build live :class:`Scenario` objects from :class:`ScenarioSpec`.

    The build sequence (dataset → partition → deletion-subset selection →
    attack application → model/config → simulation) consumes RNG streams
    in exactly the order of the historical ``build_backdoor_federation``,
    so backdoor specs reproduce the pre-spec experiments bit for bit.
    """

    DATA_KEY_ALIASES = DATA_KEY_ALIASES

    def build(
        self,
        spec: ScenarioSpec,
        scale: ExperimentScale,
        seed: int = 0,
        backend: BackendLike = None,
    ) -> Scenario:
        dataset_key = self.DATA_KEY_ALIASES.get(spec.dataset.name, spec.dataset.name)
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
            strategy=spec.partition.strategy, **dict(spec.partition.options),
        )

        client_id = spec.deletion.client_id
        if not 0 <= client_id < num_clients:
            raise ValueError(f"deletion client {client_id} out of range")
        local = fed.client_datasets[client_id]
        delete_indices = self._select_deletion(spec.deletion, train_set, local, rng)

        attack = self._make_attack(spec.attack, train_set)
        if attack is not None:
            fed.client_datasets[client_id] = attack.poison(local, delete_indices)

        resolved_model = spec.model or scale.model_for(spec.dataset.name)
        factory = _model_factory(train_set, resolved_model)
        config = _train_config(
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
        async_config = None
        latency_model = None
        if spec.federation.async_mode:
            from ..federated.engine import AsyncRoundConfig, SeededLatency

            async_config = AsyncRoundConfig(
                buffer_size=spec.federation.buffer_size,
                max_staleness=spec.federation.max_staleness,
                straggler_timeout=spec.federation.straggler_timeout,
            )
            # Latency draws are a pure function of (seed, client,
            # dispatch), so the whole async run is deterministic per seed.
            latency_model = SeededLatency(seed=seed + 3000)
        sim = FederatedSimulation(
            factory, fed, aggregator, config, seed=seed + 2000, backend=backend,
            async_config=async_config, latency_model=latency_model,
            codec=spec.federation.compression.codec,
            vectorize=spec.federation.vectorize,
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

    def _select_deletion(
        self,
        deletion: DeletionSpec,
        train_set: ArrayDataset,
        local: ArrayDataset,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if deletion.selector == "class":
            target = deletion.target_class
            if target is None:
                counts = local.class_counts()
                present = np.flatnonzero(counts > 0)
                target = int(present[counts[present].argmin()])
            indices = np.flatnonzero(local.labels == target)
            if indices.size == 0:
                raise ValueError(
                    f"deleting client holds no samples of class {target}"
                )
            if indices.size >= len(local):
                raise ValueError("cannot delete the client's entire dataset")
            return indices
        # "attacked" and "random" both sample rate * |total train| local
        # indices — the paper's "deleted data rate" semantics. They differ
        # only in whether an attack is planted on the selection.
        count = max(1, int(round(deletion.rate * len(train_set))))
        if count >= len(local):
            raise ValueError(
                f"deletion rate {deletion.rate} exceeds client "
                f"{deletion.client_id}'s local data ({count} >= {len(local)})"
            )
        return np.sort(rng.choice(len(local), count, replace=False))

    def _make_attack(
        self, attack: AttackSpec, train_set: ArrayDataset
    ) -> Optional[Any]:
        if attack.kind == "none":
            return None
        if attack.kind == "backdoor":
            trigger = attack.trigger()
            target = attack.target_label
            if target is None:
                target = select_attack_target(train_set, trigger)
            return BackdoorAttack(trigger, target_label=target)
        target = attack.target_label
        if target is None:
            target = select_flip_target(train_set)
        return LabelFlipAttack(target_label=target)


def _model_factory(dataset: ArrayDataset, model_name: str):
    from .common import model_factory_for

    return model_factory_for(dataset, model_name)


def _train_config(scale: ExperimentScale, **overrides) -> TrainConfig:
    from .common import train_config

    return train_config(scale, **overrides)


_BUILDER = ScenarioBuilder()


def build_scenario(
    spec: ScenarioSpec,
    scale: ExperimentScale,
    seed: int = 0,
    backend: BackendLike = None,
) -> Scenario:
    """Module-level convenience over one shared :class:`ScenarioBuilder`."""
    return _BUILDER.build(spec, scale, seed=seed, backend=backend)


# ----------------------------------------------------------------------
# Named scenario presets (the CLI matrix driver's --scenario choices)
# ----------------------------------------------------------------------


def backdoor_scenario(
    dataset: str = "mnist",
    rate: float = 0.06,
    trigger_size: int = 7,
    trigger_value: float = 6.0,
    target_label: Optional[int] = None,
    model: str = "",
) -> ScenarioSpec:
    """The paper's canonical scenario: backdoored subset of client 0."""
    return ScenarioSpec(
        dataset=DatasetSpec(name=dataset),
        attack=AttackSpec(
            kind="backdoor", trigger_size=trigger_size,
            trigger_value=trigger_value, target_label=target_label,
        ),
        deletion=DeletionSpec(selector="attacked", rate=rate),
        model=model,
    )


def label_flip_scenario(
    dataset: str = "mnist", rate: float = 0.06,
    target_label: Optional[int] = None,
) -> ScenarioSpec:
    """Label-flip poisoning on the to-be-deleted subset (no trigger)."""
    return ScenarioSpec(
        dataset=DatasetSpec(name=dataset),
        attack=AttackSpec(kind="label_flip", target_label=target_label),
        deletion=DeletionSpec(selector="attacked", rate=rate),
    )


def clean_deletion_scenario(
    dataset: str = "mnist", rate: float = 0.06, client_id: int = 0
) -> ScenarioSpec:
    """GDPR-style clean deletion: a random local subset, no attack."""
    return ScenarioSpec(
        dataset=DatasetSpec(name=dataset),
        attack=AttackSpec(kind="none"),
        deletion=DeletionSpec(selector="random", rate=rate, client_id=client_id),
    )


def class_deletion_scenario(
    dataset: str = "mnist", target_class: Optional[int] = None,
    client_id: int = 0,
) -> ScenarioSpec:
    """Delete every local sample of one class (None = client's rarest)."""
    return ScenarioSpec(
        dataset=DatasetSpec(name=dataset),
        attack=AttackSpec(kind="none"),
        deletion=DeletionSpec(
            selector="class", client_id=client_id, target_class=target_class
        ),
    )


SCENARIO_PRESETS: Dict[str, Callable[..., ScenarioSpec]] = {
    "backdoor": backdoor_scenario,
    "label_flip": label_flip_scenario,
    "clean_deletion": clean_deletion_scenario,
    "class_deletion": class_deletion_scenario,
}


def get_scenario(name: str, dataset: str = "mnist", **kwargs: Any) -> ScenarioSpec:
    """Build a named scenario preset."""
    try:
        preset = SCENARIO_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIO_PRESETS)}"
        ) from None
    return preset(dataset=dataset, **kwargs)
