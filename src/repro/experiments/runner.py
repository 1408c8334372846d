"""The shared experiment runner: every spec kind, one execution engine.

Each paper artifact module (``fig5_backdoor``, ``tab10_ablation``, …) is a
*thin spec definition*: it declares an
:class:`~repro.experiments.spec.ExperimentSpec` and delegates here. The
runner owns the loops — build scenario → pretrain → snapshot → per-method
restore/unlearn/evaluate — and every method goes through the registry
(:mod:`repro.unlearning.registry`), so adding a method or a scenario never
adds a module.

Spec kinds
----------
=====================  ==================================================
kind                   paper artifact shape
=====================  ==================================================
``rate_table``         metrics per deletion rate per method (Fig 5, T III–VI)
``retrain_curves``     per-round accuracy per method (Fig 4)
``divergence``         JSD/L2/t-test vs the B1 reference (T VII–IX)
``goldfish_variants``  goldfish config ablations at checkpoints (T X–XI)
``efficiency``         systems cost of every registered method
``certification``      ε̂ / MIA / relearn certification
``shard_convergence``  sharded-trainer accuracy vs rounds (Fig 6)
``shard_deletion``     accuracy around a deletion event (Fig 7)
``aggregation``        FedAvg vs adaptive aggregation (Fig 8/9, T XII)
``matrix``             registry × spec sweep (the CLI matrix driver)
=====================  ==================================================

Every produced :class:`~repro.experiments.results.ExperimentResult` is
stamped with the spec's stable content hash, so persisted results can be
joined back to the exact declaration that produced them.

RNG discipline: loops preserve the historical build/run order (method
execution order included — client RNG streams advance across methods), so
results are bit-identical to the pre-spec per-module scripts at the same
seed.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data import make_dataset, make_federated
from ..federated import RoundHistoryStore, attach_history
from ..federated.metering import state_bytes
from ..federated.simulation import make_aggregator, FederatedSimulation
from ..nn.module import Module
from ..runtime import BackendLike, get_backend
from ..training import evaluate, train
from ..unlearning import ShardedClientTrainer, UnlearnOutcome
from ..unlearning.registry import (
    ClientDeletionRequest,
    get_unlearner,
    make_unlearner,
)
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import (
    ExperimentSpec,
    Scenario,
    ScenarioSpec,
    build_scenario,
    dataset_data_key,
    spec_hash,
)

_MB = 1024.0 * 1024.0

# The history-replaying methods draw their calibration randomness from a
# stream of their own, at a fixed offset from the run seed (a method
# registered without an entry draws from the seed itself).
_HISTORY_RNG_OFFSETS = {"federaser": 31, "fedrecovery": 37}


def _history_rng(seed: int, cls) -> Optional[np.random.Generator]:
    """The generator ``run_method`` hands an unlearner class, or ``None``
    when it replays no history."""
    if not cls.requires_history:
        return None
    return np.random.default_rng(seed + _HISTORY_RNG_OFFSETS.get(cls.name, 0))


# ----------------------------------------------------------------------
# Core building blocks
# ----------------------------------------------------------------------
@dataclass
class PreparedScenario:
    """A built, pretrained scenario ready for method comparison."""

    scenario: Scenario
    origin: Module
    snapshot: "SimulationSnapshot"
    history: Optional[RoundHistoryStore] = None


def prepare(
    scenario_spec: ScenarioSpec,
    scale: ExperimentScale,
    seed: int = 0,
    backend: BackendLike = None,
    with_history: bool = False,
    pretrain_rounds: int = 0,
) -> PreparedScenario:
    """Build → (attach history) → pretrain → snapshot."""
    from .common import SimulationSnapshot, pretrain

    scenario = build_scenario(scenario_spec, scale, seed=seed, backend=backend)
    history = (
        attach_history(scenario.sim, RoundHistoryStore()) if with_history else None
    )
    if pretrain_rounds:
        scenario.sim.run(pretrain_rounds)
        origin = scenario.sim.global_model()
    else:
        origin = pretrain(scenario, scale)
    snapshot = SimulationSnapshot.capture(scenario.sim)
    return PreparedScenario(
        scenario=scenario, origin=origin, snapshot=snapshot, history=history
    )


def run_method(
    prepared: PreparedScenario,
    method: str,
    scale: ExperimentScale,
    *,
    config_override=None,
    round_callback=None,
    rng: Optional[np.random.Generator] = None,
    backend: BackendLike = None,
) -> UnlearnOutcome:
    """Restore the pretrained snapshot, file the deletion, run one method."""
    from .common import goldfish_config

    scenario = prepared.scenario
    prepared.snapshot.restore(scenario.sim)
    options: Dict[str, Any] = {}
    if config_override is not None:
        options["config"] = config_override
    elif get_unlearner(method).name == "ours":
        options["config"] = goldfish_config(scale, train=scenario.config)
    unlearner = make_unlearner(
        method, train_config=scenario.config, num_rounds=scale.unlearn_rounds,
        **options,
    )
    if unlearner.level == "sample":
        scenario.register_deletion()
        requests: Tuple[ClientDeletionRequest, ...] = ()
    else:
        # Client-level methods erase the deleting client entirely; the
        # sample request stays unfiled exactly as in the pre-spec flow.
        requests = (ClientDeletionRequest.of(scenario.deletion_client_id),)
    return unlearner.unlearn(
        scenario.sim,
        requests,
        backend=backend,
        round_callback=round_callback,
        history=prepared.history,
        rng=rng,
    )


def evaluate_model(model: Module, scenario: Scenario) -> Dict[str, float]:
    from .common import evaluate_model as _evaluate

    return _evaluate(model, scenario)


def _stamp(result: ExperimentResult, exp: ExperimentSpec) -> ExperimentResult:
    result.spec_hash = exp.hash()
    return result


def _resolve_model_and_config(exp: ExperimentSpec, scale: ExperimentScale,
                              seed: int, epochs_override: Optional[int] = None):
    """Dataset + factory + config for the non-federation kinds (Fig 6–9)."""
    from .common import model_factory_for, train_config

    name = exp.scenario.dataset.name
    train_set, test_set = make_dataset(
        dataset_data_key(name),
        train_size=exp.scenario.dataset.train_size or scale.train_size,
        test_size=exp.scenario.dataset.test_size or scale.test_size,
        seed=seed,
    )
    factory = model_factory_for(train_set, exp.scenario.model or scale.model_for(name))
    overrides = {} if epochs_override is None else {"epochs": epochs_override}
    config = train_config(scale, **overrides)
    return train_set, test_set, factory, config


# ----------------------------------------------------------------------
# rate_table — Fig 5 + Tables III–VI
# ----------------------------------------------------------------------
def run_rate_table(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    rates: Sequence[float] = (),
    seed: int = 0,
) -> ExperimentResult:
    """One row of origin + per-method metrics per deletion rate."""
    methods = exp.methods
    rates = tuple(rates) or tuple(exp.params.get("rates") or scale.deletion_rates)
    labelled = ("origin",) + tuple(methods)
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=("rate",) + tuple(
            f"{name}_{suffix}" for name in labelled for suffix in ("acc", "bd")
        ),
    )
    for rate in rates:
        prepared = prepare(
            exp.scenario.with_overrides(**{"deletion.rate": rate}), scale, seed=seed
        )
        metrics = {"origin": evaluate_model(prepared.origin, prepared.scenario)}
        for method in methods:
            outcome = run_method(prepared, method, scale)
            metrics[method] = evaluate_model(outcome.global_model, prepared.scenario)
        row: Dict[str, Any] = {"rate": f"{100 * rate:.0f}%"}
        for name in labelled:
            row[f"{name}_acc"] = metrics[name]["acc"]
            row[f"{name}_bd"] = metrics[name]["backdoor"]
        result.add_row(**row)
    prefix = exp.params.get("series_prefix", exp.kind)
    for name in labelled:
        result.add_series(
            f"{prefix}_{name}_backdoor", [row[f"{name}_bd"] for row in result.rows]
        )
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# retrain_curves — Fig 4
# ----------------------------------------------------------------------
def run_retrain_curves(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    num_rounds: int = 0,
    seed: int = 0,
) -> ExperimentResult:
    """Per-round retraining accuracy for each method after one deletion."""
    num_rounds = (
        num_rounds or int(exp.params.get("num_rounds") or 0)
        or max(scale.unlearn_rounds, 3)
    )
    prepared = prepare(exp.scenario, scale, seed=seed)
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=("method", "final_acc", "rounds"),
    )
    run_scale = scale.with_overrides(unlearn_rounds=num_rounds)
    for method in exp.methods:
        outcome = run_method(prepared, method, run_scale)
        result.add_series(method, [100 * a for a in outcome.round_accuracies])
        result.add_row(
            method=method,
            final_acc=100 * outcome.final_accuracy,
            rounds=outcome.rounds_run,
        )
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# divergence — Tables VII–IX
# ----------------------------------------------------------------------
def run_divergence(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    rates: Sequence[float] = (),
    seed: int = 0,
) -> ExperimentResult:
    """JSD / L2 vs the retrained reference; t-test vs the origin model."""
    from ..eval import compare_models
    from ..eval.divergence import t_test_p_value
    from ..training.evaluation import predict_proba

    reference = exp.params.get("reference", "b1")
    if reference not in exp.methods:
        raise ValueError(
            f"divergence reference {reference!r} must be one of the spec's "
            f"methods {exp.methods}"
        )
    compared = tuple(
        exp.params.get("compared") or (m for m in exp.methods if m != reference)
    )
    rates = tuple(rates) or tuple(exp.params.get("rates") or scale.deletion_rates)
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=("rate",) + tuple(
            f"{m}_{suffix}" for m in compared for suffix in ("jsd", "l2", "t")
        ),
    )
    for rate in rates:
        prepared = prepare(
            exp.scenario.with_overrides(**{"deletion.rate": rate}), scale, seed=seed
        )
        test = prepared.scenario.test_set
        models = {
            method: run_method(prepared, method, scale).global_model
            for method in exp.methods
        }
        origin_probs = predict_proba(prepared.origin, test.images)
        row: Dict[str, Any] = {"rate": f"{100 * rate:.0f}%"}
        for method in compared:
            report = compare_models(models[method], models[reference], test)
            method_probs = predict_proba(models[method], test.images)
            row[f"{method}_jsd"] = report.jsd
            row[f"{method}_l2"] = report.l2
            row[f"{method}_t"] = t_test_p_value(method_probs, origin_probs)
        result.add_row(**row)
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# goldfish_variants — Tables X–XI
# ----------------------------------------------------------------------
def run_goldfish_variants(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    checkpoints: Sequence[int] = (),
    seed: int = 0,
) -> ExperimentResult:
    """Goldfish loss-config variants evaluated at round checkpoints."""
    from .common import goldfish_config

    variants: Dict[str, Dict[str, Any]] = exp.params["variants"]
    checkpoints = tuple(checkpoints) or tuple(
        exp.params.get("checkpoints") or range(1, scale.unlearn_rounds + 1)
    )
    # The capture callback appends in ascending round order; normalise so
    # row labels line up with it whatever order the caller listed.
    checkpoints = tuple(sorted(set(checkpoints)))
    num_rounds = max(checkpoints)
    prepared = prepare(exp.scenario, scale, seed=seed)
    run_scale = scale.with_overrides(unlearn_rounds=num_rounds)

    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=("round", "metric", *variants),
    )
    per_variant: Dict[str, List[Dict[str, float]]] = {}
    for name, overrides in variants.items():
        config = goldfish_config(
            scale, **overrides, train=prepared.scenario.config
        )
        checkpoint_metrics: List[Dict[str, float]] = []

        def capture(round_index: int, sim) -> None:
            if round_index + 1 in checkpoints:
                checkpoint_metrics.append(
                    evaluate_model(sim.global_model(), prepared.scenario)
                )

        run_method(
            prepared, "ours", run_scale,
            config_override=config, round_callback=capture,
        )
        per_variant[name] = checkpoint_metrics

    for position, checkpoint in enumerate(checkpoints):
        for metric in ("acc", "backdoor"):
            result.add_row(
                round=checkpoint,
                metric=metric,
                **{
                    name: per_variant[name][position][metric]
                    for name in variants
                },
            )
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# efficiency — systems cost of every registered method
# ----------------------------------------------------------------------
def run_efficiency(
    exp: ExperimentSpec, scale: ExperimentScale, seed: int = 0
) -> ExperimentResult:
    """Accuracy, attack success, wall-clock, epochs, comm and storage."""
    prepared = prepare(exp.scenario, scale, seed=seed, with_history=True)
    scenario = prepared.scenario
    per_state_bytes = state_bytes(scenario.sim.server.global_state)
    num_clients = len(scenario.sim.clients)

    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title.format(
            dataset=scenario.spec.dataset.name,
            rate=scenario.spec.deletion.rate,
            clients=num_clients,
        ),
        columns=(
            "method", "acc", "backdoor", "wall_s",
            "local_epochs", "comm_mb", "storage_mb",
        ),
        notes=exp.params.get("notes", ""),
    )
    storage_mb = prepared.history.storage_report().total_bytes / _MB
    for method in exp.methods:
        cls = get_unlearner(method)
        outcome = run_method(
            prepared, method, scale, rng=_history_rng(seed, cls)
        )
        metrics = evaluate_model(outcome.global_model, scenario)
        result.add_row(
            method=method,
            acc=metrics["acc"],
            backdoor=metrics["backdoor"],
            wall_s=outcome.wall_seconds,
            local_epochs=outcome.local_epochs_total,
            comm_mb=outcome.chains * per_state_bytes * 2 / _MB,
            storage_mb=storage_mb if cls.requires_history else 0.0,
        )
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# certification — ε̂ / MIA / relearn-time
# ----------------------------------------------------------------------
def run_certification(
    exp: ExperimentSpec, scale: ExperimentScale, seed: int = 0
) -> ExperimentResult:
    """Certify each method against the retrained reference."""
    from ..eval import certify_outputs, membership_attack, relearn_time

    delta = float(exp.params.get("delta", 0.05))
    relearn_max_epochs = int(exp.params.get("relearn_max_epochs", 12))
    relearn_loss_threshold = float(exp.params.get("relearn_loss_threshold", 0.3))
    reference_method = exp.params.get("reference", "b1")

    prepared = prepare(exp.scenario, scale, seed=seed)
    scenario = prepared.scenario

    # The certification probe must cover the inputs where retained
    # knowledge of D_f would surface — clean test samples alone never show
    # the backdoor, so half the probe carries the trigger when one exists.
    if scenario.attack is not None and hasattr(scenario.attack, "triggered_test_set"):
        probe = scenario.test_set.concat(
            scenario.attack.triggered_test_set(scenario.test_set)
        )
    else:
        probe = scenario.test_set

    client = scenario.sim.clients[scenario.deletion_client_id]
    forget_set = client.dataset.subset(scenario.poison_indices)
    holdout = scenario.test_set.subset(
        np.arange(min(len(forget_set), len(scenario.test_set)))
    )

    reference = run_method(prepared, reference_method, scale).global_model

    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title.format(
            dataset=scenario.spec.dataset.name, rate=scenario.spec.deletion.rate
        ),
        columns=("method", "acc", "eps_hat", "mean_jsd", "mia_adv",
                 "relearn_speedup"),
        notes=exp.params.get("notes", ""),
    )
    candidates = {"origin": prepared.origin}
    for method in exp.methods:
        if method == reference_method:
            continue
        candidates[method] = run_method(prepared, method, scale).global_model
    candidates[reference_method] = reference

    for method, model in candidates.items():
        certification = certify_outputs(model, reference, probe, delta=delta)
        attack = membership_attack(model, forget_set, holdout)
        relearn = relearn_time(
            scenario.model_factory,
            model.state_dict(),
            forget_set,
            scenario.config,
            loss_threshold=relearn_loss_threshold,
            max_epochs=relearn_max_epochs,
            rng=np.random.default_rng(seed + 77),
        )
        _, accuracy = evaluate(model, scenario.test_set)
        result.add_row(
            method=method,
            acc=100.0 * accuracy,
            eps_hat=certification.epsilon_hat,
            mean_jsd=certification.mean_jsd,
            mia_adv=attack.advantage,
            relearn_speedup=relearn.speedup,
        )
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# shard_convergence — Fig 6
# ----------------------------------------------------------------------
def run_shard_convergence(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    shard_counts: Sequence[int] = (),
    num_rounds: int = 0,
    seed: int = 0,
) -> ExperimentResult:
    """Per-round accuracy of the shard-aggregated model for each τ."""
    shard_counts = tuple(shard_counts) or tuple(
        exp.params.get("shard_counts") or scale.shard_counts
    )
    num_rounds = (
        num_rounds or int(exp.params.get("num_rounds") or 0)
        or max(3, scale.pretrain_rounds // 2)
    )
    train_set, test_set, factory, config = _resolve_model_and_config(
        exp, scale, seed, epochs_override=1
    )
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title.format(
            shard_counts=shard_counts, dataset=exp.scenario.dataset.name
        ),
        columns=("shards", "final_acc"),
    )
    for tau in shard_counts:
        trainer = ShardedClientTrainer(
            train_set, tau, factory, np.random.default_rng(seed + tau)
        )
        accuracies = []
        for _ in range(num_rounds):
            trainer.train_all(config)
            _, acc = evaluate(trainer.local_model(), test_set)
            accuracies.append(100 * acc)
        result.add_series(f"tau={tau}", accuracies)
        result.add_row(shards=tau, final_acc=accuracies[-1])
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# shard_deletion — Fig 7
# ----------------------------------------------------------------------
def run_shard_deletion(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    deletion_rate: float,
    shard_counts: Sequence[int] = (),
    deletion_round: int = 3,
    num_rounds: int = 0,
    seed: int = 0,
) -> ExperimentResult:
    """One panel: accuracy timeline per shard count at one deletion rate."""
    shard_counts = tuple(shard_counts) or tuple(
        exp.params.get("shard_counts") or scale.shard_counts
    )
    num_rounds = num_rounds or deletion_round + max(3, scale.unlearn_rounds)
    if deletion_round >= num_rounds:
        raise ValueError("deletion_round must fall inside the training window")
    train_set, test_set, factory, config = _resolve_model_and_config(
        exp, scale, seed, epochs_override=1
    )
    deletion_rng = np.random.default_rng(seed + 99)
    num_delete = max(1, int(round(deletion_rate * len(train_set))))
    delete_indices = np.sort(
        deletion_rng.choice(len(train_set), num_delete, replace=False)
    )

    result = ExperimentResult(
        experiment_id=exp.experiment_id.format(rate=100 * deletion_rate),
        title=exp.title.format(deletion_round=deletion_round),
        columns=("shards", "pre_delete_acc", "post_delete_acc", "final_acc",
                 "affected_shards"),
    )
    for tau in shard_counts:
        trainer = ShardedClientTrainer(
            train_set, tau, factory, np.random.default_rng(seed + tau)
        )
        accuracies = []
        affected = 0
        for round_index in range(num_rounds):
            if round_index == deletion_round:
                report = trainer.delete(delete_indices, config)
                affected = len(report.affected_shards)
            trainer.train_all(config)
            _, acc = evaluate(trainer.local_model(), test_set)
            accuracies.append(100 * acc)
        result.add_series(f"tau={tau}", accuracies)
        result.add_row(
            shards=tau,
            pre_delete_acc=accuracies[deletion_round - 1],
            post_delete_acc=accuracies[deletion_round],
            final_acc=accuracies[-1],
            affected_shards=affected,
        )
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# aggregation — Fig 8 panels, Table XII, Fig 9
# ----------------------------------------------------------------------
def run_aggregation_panel(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    num_clients: int,
    num_rounds: int = 0,
    seed: int = 0,
) -> ExperimentResult:
    """One heterogeneous-aggregation panel: FedAvg vs ours per round."""
    num_rounds = num_rounds or scale.pretrain_rounds
    train_set, test_set, factory, config = _resolve_model_and_config(
        exp, scale, seed
    )
    aggregators: Dict[str, str] = exp.params.get(
        "aggregators", {"fedavg": "fedavg_uniform", "adaptive": "adaptive"}
    )
    strategy = exp.scenario.partition.strategy

    result = ExperimentResult(
        experiment_id=exp.experiment_id.format(clients=num_clients),
        title=exp.title,
        columns=("aggregator", "final_acc", "first_round_acc",
                 "first_round_client_std"),
    )
    for label, name in aggregators.items():
        rng = np.random.default_rng(seed + num_clients)  # same partition for both
        fed = make_federated(
            train_set, test_set, num_clients, rng, strategy=strategy,
            **dict(exp.scenario.partition.options),
        )
        aggregator = make_aggregator(name, test_set=test_set, model_factory=factory)
        sim = FederatedSimulation(factory, fed, aggregator, config, seed=seed + 7)
        history = sim.run(num_rounds, record_client_metrics=True)
        accs = [100 * a for a in history.accuracies]
        client_std = 100 * float(np.std(history.rounds[0].client_accuracies))
        result.add_series(label, accs)
        result.add_series(
            f"{label}_client_std",
            [100 * float(np.std(r.client_accuracies)) for r in history.rounds],
        )
        result.add_row(
            aggregator=label,
            final_acc=accs[-1],
            first_round_acc=accs[0],
            first_round_client_std=client_std,
        )
    return _stamp(result, exp)


def run_heterogeneity_table(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    client_counts: Sequence[int] = (),
    seed: int = 0,
) -> ExperimentResult:
    """Table XII: size variance and local-model accuracy spread."""
    from .common import model_factory_for, train_config

    client_counts = tuple(client_counts) or tuple(
        exp.params.get("client_counts") or scale.client_counts
    )
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=("clients", "variance", "min_acc", "max_acc"),
    )
    name = exp.scenario.dataset.name
    for count in client_counts:
        train_set, test_set = make_dataset(
            dataset_data_key(name), train_size=scale.train_size,
            test_size=scale.test_size, seed=seed,
        )
        rng = np.random.default_rng(seed + count)
        fed = make_federated(
            train_set, test_set, count, rng,
            strategy=exp.scenario.partition.strategy,
            **dict(exp.scenario.partition.options),
        )
        factory = model_factory_for(
            train_set, exp.scenario.model or scale.model_for(name)
        )
        config = train_config(scale)
        accuracies = []
        for index, local in enumerate(fed.client_datasets):
            model = factory()
            train(model, local, config, np.random.default_rng(seed + 500 + index))
            _, acc = evaluate(model, test_set)
            accuracies.append(100 * acc)
        result.add_row(
            clients=count,
            variance=fed.size_variance(),
            min_acc=float(min(accuracies)),
            max_acc=float(max(accuracies)),
        )
    return _stamp(result, exp)


def run_aggregation_iid(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    client_counts: Sequence[int] = (),
    num_rounds: int = 0,
    seed: int = 0,
) -> ExperimentResult:
    """Fig 9: both aggregators should coincide under IID local data."""
    client_counts = tuple(client_counts) or tuple(
        exp.params.get("client_counts") or scale.client_counts
    )
    num_rounds = num_rounds or scale.pretrain_rounds
    train_set, test_set, factory, config = _resolve_model_and_config(
        exp, scale, seed
    )
    aggregators: Dict[str, str] = exp.params.get(
        "aggregators", {"fedavg": "fedavg_uniform", "adaptive": "adaptive"}
    )
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=("clients", "aggregator", "final_acc", "max_gap"),
    )
    for count in client_counts:
        curves: Dict[str, List[float]] = {}
        for label, name in aggregators.items():
            rng = np.random.default_rng(seed + count)  # same partition for both
            fed = make_federated(
                train_set, test_set, count, rng,
                strategy=exp.scenario.partition.strategy,
                **dict(exp.scenario.partition.options),
            )
            aggregator = make_aggregator(
                name, test_set=test_set, model_factory=factory
            )
            sim = FederatedSimulation(factory, fed, aggregator, config, seed=seed + 7)
            history = sim.run(num_rounds)
            curves[label] = [100 * a for a in history.accuracies]
            result.add_series(f"{label}_{count}clients", curves[label])
        labels = list(aggregators)
        gap = max(
            abs(a - b) for a, b in zip(curves[labels[0]], curves[labels[1]])
        )
        for label in labels:
            result.add_row(
                clients=count,
                aggregator=label,
                final_acc=curves[label][-1],
                max_gap=gap,
            )
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# matrix — the CLI's registry × spec sweep driver
# ----------------------------------------------------------------------
def pretrain_cache_key(scenario_spec: ScenarioSpec) -> str:
    """The sweep-level pretrain cache key: spec hash, deletion zeroed.

    Matrix cells that differ only in ``deletion.*`` train the same
    federation before any method runs — *which* samples will later be
    deleted cannot influence pretraining unless an attack plants
    contamination on exactly that subset.  Zeroing the deletion section
    out of the hashed payload makes such cells collide on one key.
    """
    payload = scenario_spec.to_dict()
    payload["deletion"] = {}
    return spec_hash(payload)


def _pretrain_cacheable(scenario_spec: ScenarioSpec) -> bool:
    """Whether pretraining is independent of the deletion fields.

    With an attack, the deletion selection decides which samples get
    poisoned, so different rates produce different training data and the
    cache must miss; clean scenarios only *mark* the selection for later.
    Async-mode scenarios never cache: the event engine accumulates state
    beyond the snapshot (virtual clock, per-client dispatch counts that
    seed the latency draws, fold version), so a hit's fresh engine would
    not reproduce a cold cell's post-pretrain event schedule.
    """
    return (
        scenario_spec.attack.kind == "none"
        and not scenario_spec.federation.async_mode
    )


@dataclass
class _CachedPretrain:
    """One cached pretrain: origin model, snapshot, post-pretrain RNGs.

    ``SimulationSnapshot`` deliberately restores models and datasets but
    not client RNG positions (methods advance the streams across a cell —
    the historical RNG discipline).  A cache *hit* builds a fresh
    simulation whose clients sit at their initial positions, so the
    post-pretrain positions are restored explicitly; without them the hit
    would train with different mini-batch shuffles than a cold pretrain
    and bit-identity would silently break.
    """

    origin: Module
    snapshot: Any
    client_rng_states: List[Any]

    def restore_into(self, scenario: Scenario) -> "PreparedScenario":
        for client, rng_state in zip(
            scenario.sim.clients, self.client_rng_states
        ):
            client.rng.bit_generator.state = rng_state
        return PreparedScenario(
            scenario=scenario, origin=self.origin, snapshot=self.snapshot
        )

    @classmethod
    def capture(cls, prepared: "PreparedScenario") -> "_CachedPretrain":
        return cls(
            origin=prepared.origin,
            snapshot=prepared.snapshot,
            client_rng_states=[
                dict(client.rng.bit_generator.state)
                for client in prepared.scenario.sim.clients
            ],
        )


def run_matrix(
    exp: ExperimentSpec, scale: ExperimentScale, seed: int = 0, store=None
) -> ExperimentResult:
    """Enumerate sweep combinations × methods over one base scenario.

    ``exp.params["sweeps"]`` maps dotted spec paths to value lists
    (``{"deletion.rate": [0.02, 0.06]}``); every combination builds and
    pretrains once, then every method runs from the shared snapshot. An
    ``origin`` row per combination anchors the metrics.

    Combinations differing only in ``deletion.*`` share one pretrained
    snapshot through the sweep-level cache (:func:`pretrain_cache_key`) —
    bit-identical to a cold pretrain, because the deletion fields of a
    clean (attack-free) scenario never touch the training data.  Disable
    with ``params={"pretrain_cache": False}``; scenarios with an attack,
    or methods needing round history, always pretrain cold.

    With a :class:`~repro.experiments.store.ResultStore`, every sweep
    cell's rows are checkpointed under a cell-level spec hash as soon as
    the cell finishes — an interrupted matrix resumed with the same
    store re-runs only the cells that never completed (resumed cells
    contribute no transport/vectorize telemetry; the ``result_store``
    runtime entry records how many were skipped).
    """
    sweeps: Dict[str, List[Any]] = dict(exp.params.get("sweeps", {}))
    methods = tuple(exp.methods) or ("ours", "b1")
    keys = list(sweeps)
    value_lists = [sweeps[key] for key in keys]
    combos = list(itertools.product(*value_lists)) if keys else [()]

    needs_history = any(get_unlearner(m).requires_history for m in methods)
    # History is recorded *during* pretraining, so cached cells would lose
    # it — the update-adjustment methods force cold pretrains.
    cache_enabled = (
        bool(exp.params.get("pretrain_cache", True)) and not needs_history
    )
    pretrain_cache: Dict[str, _CachedPretrain] = {}
    cache_hits = cache_misses = 0
    transport_totals: Dict[str, Any] = {}
    vectorize_totals: Dict[str, Any] = {}
    # Cluster fault accounting: the resolved backend is shared (and
    # cached) process-wide, so its FaultReport counters are cumulative —
    # snapshot them now and stamp this run's *delta* into provenance.
    run_backend = get_backend(None)
    cluster_before = (
        run_backend.fault_report()
        if hasattr(run_backend, "fault_report")
        else None
    )
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=tuple(keys) + (
            "method", "acc", "backdoor", "wall_s", "rounds", "chains",
        ),
    )
    cells_resumed = 0
    for combo in combos:
        overrides = dict(zip(keys, combo))
        cell_hash = None
        if store is not None:
            # A cell is addressed by the matrix spec plus its overrides —
            # the methods ride in exp.hash() already.
            cell_hash = spec_hash({"matrix": exp.hash(), "cell": overrides})
            cached_cell = store.get(cell_hash, scale.name, seed)
            if cached_cell is not None:
                result.rows.extend(cached_cell.rows)
                cells_resumed += 1
                continue
        cell_start = len(result.rows)
        scenario_spec = (
            exp.scenario.with_overrides(**overrides) if overrides else exp.scenario
        )
        cache_key = (
            pretrain_cache_key(scenario_spec)
            if cache_enabled and _pretrain_cacheable(scenario_spec)
            else None
        )
        start = time.perf_counter()
        if cache_key is not None and cache_key in pretrain_cache:
            # Cache hit: rebuild the (cheap) scenario, reuse the pretrained
            # origin + snapshot + post-pretrain client RNG positions;
            # run_method restores the snapshot into the fresh simulation
            # before every method exactly as on a miss.
            prepared = pretrain_cache[cache_key].restore_into(
                build_scenario(scenario_spec, scale, seed=seed)
            )
            cache_hits += 1
        else:
            prepared = prepare(
                scenario_spec, scale, seed=seed, with_history=needs_history
            )
            if cache_key is not None:
                pretrain_cache[cache_key] = _CachedPretrain.capture(prepared)
                cache_misses += 1
        pretrain_wall = time.perf_counter() - start
        origin_metrics = evaluate_model(prepared.origin, prepared.scenario)
        result.add_row(
            **overrides,
            method="origin",
            acc=origin_metrics["acc"],
            backdoor=origin_metrics["backdoor"],
            wall_s=pretrain_wall,
            rounds=0,
            chains=0,
        )
        for method in methods:
            outcome = run_method(
                prepared, method, scale,
                rng=_history_rng(seed, get_unlearner(method)),
            )
            metrics = evaluate_model(outcome.global_model, prepared.scenario)
            result.add_row(
                **overrides,
                method=method,
                acc=metrics["acc"],
                backdoor=metrics["backdoor"],
                wall_s=outcome.wall_seconds,
                rounds=outcome.rounds_run,
                chains=outcome.chains,
            )
        # Aggregate bytes-on-the-wire across cells, keyed by codec so a
        # federation.compression.codec sweep reports each codec's traffic
        # separately (pretraining + method rounds of its cells).
        report = prepared.scenario.sim.transport_report()
        codec_key = report.pop("codec")
        bucket = transport_totals.setdefault(codec_key, {})
        for key, value in report.items():
            bucket[key] = bucket.get(key, 0) + value
        vec_report = prepared.scenario.sim.vectorize_report()
        if vec_report["requested"]:
            vectorize_totals["requested"] = True
            for key in ("rounds_vectorized", "rounds_fallback"):
                vectorize_totals[key] = vectorize_totals.get(key, 0) + vec_report[key]
            reasons = vectorize_totals.setdefault("fallback_reasons", {})
            for reason, count in vec_report["fallback_reasons"].items():
                reasons[reason] = reasons.get(reason, 0) + count
            # Stack-chunk fan-out tally: how many fused units were split
            # into how many chunks (keys are chunk counts).  Stamped into
            # provenance so a run records whether vectorization actually
            # composed with the backend's parallelism.
            chunk_totals = vectorize_totals.setdefault("chunks", {})
            for chunk_count, occurrences in vec_report.get("chunks", {}).items():
                chunk_totals[chunk_count] = (
                    chunk_totals.get(chunk_count, 0) + occurrences
                )
        if store is not None:
            store.put(
                ExperimentResult(
                    experiment_id=f"{exp.experiment_id}#cell",
                    title=f"{exp.title} [cell {overrides or 'base'}]",
                    columns=result.columns,
                    rows=result.rows[cell_start:],
                ),
                scale.name,
                seed,
                spec_hash=cell_hash,
            )
    if store is not None:
        result.runtime["result_store"] = {
            "cells_resumed": cells_resumed,
            "cells_run": len(combos) - cells_resumed,
        }
    if transport_totals:
        result.runtime["transport"] = transport_totals
    if vectorize_totals:
        result.runtime["vectorize"] = vectorize_totals
    if cache_enabled:
        result.runtime["pretrain_cache"] = {
            "hits": cache_hits, "misses": cache_misses,
        }
    if cluster_before is not None:
        after = run_backend.fault_report()
        result.runtime["cluster"] = {
            key: after[key] - cluster_before.get(key, 0) for key in after
        }
    result.runtime["engine"] = (
        "async" if exp.scenario.federation.async_mode else "sync"
    )
    return _stamp(result, exp)


# ----------------------------------------------------------------------
# Kind dispatch (the spec-level entry point)
# ----------------------------------------------------------------------
def _run_shard_deletion_spec(
    exp: ExperimentSpec, scale: ExperimentScale, seed: int = 0, **kwargs: Any
) -> ExperimentResult:
    rate = float(exp.params.get("rate", 0.06))
    return run_shard_deletion(exp, scale, rate, seed=seed, **kwargs)


def _run_aggregation_spec(
    exp: ExperimentSpec, scale: ExperimentScale, seed: int = 0, **kwargs: Any
) -> ExperimentResult:
    num_clients = int(exp.params.get("num_clients") or scale.num_clients)
    return run_aggregation_panel(exp, scale, num_clients, seed=seed, **kwargs)


def _run_deletion_sla_spec(
    exp: ExperimentSpec, scale: ExperimentScale, seed: int = 0, **kwargs: Any
) -> ExperimentResult:
    from .deletion_sla import run_deletion_sla

    return run_deletion_sla(exp, scale, seed=seed, **kwargs)


_KIND_RUNNERS: Dict[str, Callable[..., ExperimentResult]] = {
    "rate_table": run_rate_table,
    "retrain_curves": run_retrain_curves,
    "divergence": run_divergence,
    "goldfish_variants": run_goldfish_variants,
    "efficiency": run_efficiency,
    "certification": run_certification,
    "shard_convergence": run_shard_convergence,
    "shard_deletion": _run_shard_deletion_spec,
    "aggregation": _run_aggregation_spec,
    "aggregation_iid": run_aggregation_iid,
    "matrix": run_matrix,
    "deletion_sla": _run_deletion_sla_spec,
}

#: Kinds whose runner accepts a ``store=`` kwarg for intra-run resume
#: (today: the matrix checkpoints each sweep cell).
_STORE_AWARE_KINDS = {"matrix"}


def run_spec(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    seed: int = 0,
    store=None,
    **kwargs: Any,
) -> ExperimentResult:
    """Execute one experiment spec (kinds taking uniform arguments).

    With a :class:`~repro.experiments.store.ResultStore`, a spec already
    computed at this ``(scale, seed)`` returns the persisted result
    without running anything; a fresh run is persisted on the way out.
    Matrix specs additionally checkpoint every sweep cell into the store,
    so an interrupted matrix resumes from its completed cells.
    """
    try:
        runner = _KIND_RUNNERS[exp.kind]
    except KeyError:
        raise ValueError(
            f"unknown experiment kind {exp.kind!r}; "
            f"available: {sorted(_KIND_RUNNERS)}"
        ) from None
    if store is not None:
        cached = store.get(exp.hash(), scale.name, seed)
        if cached is not None:
            cached.runtime["result_store"] = "hit"
            return cached
        if exp.kind in _STORE_AWARE_KINDS:
            kwargs = {**kwargs, "store": store}
    result = runner(exp, scale, seed=seed, **kwargs)
    if store is not None:
        store.put(result, scale.name, seed, spec_hash=exp.hash())
    return result
