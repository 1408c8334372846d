"""The shared experiment runner: one loop per paper-artifact shape.

Each paper artifact module (``fig5_backdoor``, ``tab10_ablation``, …) is a
*thin spec definition*: it declares an
:class:`~repro.experiments.spec.ExperimentSpec` and calls its loop here
with the loop's knobs as arguments. The runner owns the loops — build
scenario → pretrain → snapshot → per-method restore/unlearn/evaluate —
and :func:`run_method` runs every unlearning method by name, through its
flow in :mod:`repro.unlearning.protocols`.

Loops
-----
==============================  ==========================================
loop                            paper artifact shape
==============================  ==========================================
:func:`run_rate_table`          metrics per deletion rate per method (Fig 5, T III–VI)
:func:`run_retrain_curves`      per-round accuracy per method (Fig 4)
:func:`run_divergence`          JSD/L2/t-test vs the B1 reference (T VII–IX)
:func:`run_goldfish_variants`   goldfish config ablations at checkpoints (T X–XI)
:func:`run_efficiency`          systems cost of every unlearning method
:func:`run_certification`       ε̂ / MIA / relearn certification
:func:`run_shard_convergence`   sharded-trainer accuracy vs rounds (Fig 6)
:func:`run_shard_deletion`      accuracy around a deletion event (Fig 7)
:func:`run_aggregation_panel`   FedAvg vs adaptive aggregation (Fig 8)
:func:`run_heterogeneity_table` size variance and local accuracy (T XII)
:func:`run_aggregation_iid`     FedAvg vs adaptive under IID data (Fig 9)
==============================  ==========================================

RNG discipline: loops keep a fixed build/run order (method execution
order included — client RNG streams advance across methods), so one seed
gives one result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..data import make_dataset, make_federated
from ..federated import RoundHistoryStore, attach_history
from ..federated.metering import state_bytes
from ..federated.simulation import make_aggregator, FederatedSimulation
from ..nn.module import Module
from ..runtime import BackendLike
from ..training import evaluate, train
from ..unlearning import IncompetentTeacherConfig, ShardedClientTrainer
from ..unlearning.protocols import (
    CLIENT_LEVEL_METHODS,
    METHODS,
    UnlearnOutcome,
    federated_federaser,
    federated_fedrecovery,
    federated_goldfish,
    federated_incompetent_teacher,
    federated_rapid_retrain,
    federated_retrain,
)
from .common import SimulationSnapshot, goldfish_config
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import (
    ExperimentSpec,
    Scenario,
    ScenarioSpec,
    build_scenario,
    dataset_data_key,
    model_factory_for,
    train_config,
)

_MB = 1024.0 * 1024.0


# ----------------------------------------------------------------------
# Core building blocks
# ----------------------------------------------------------------------
@dataclass
class PreparedScenario:
    """A built, pretrained scenario ready for method comparison."""

    scenario: Scenario
    origin: Module
    snapshot: SimulationSnapshot
    history: Optional[RoundHistoryStore] = None


def prepare(
    scenario_spec: ScenarioSpec,
    scale: ExperimentScale,
    seed: int = 0,
    backend: BackendLike = None,
    with_history: bool = False,
    pretrain_rounds: int = 0,
) -> PreparedScenario:
    """Build → (attach history) → pretrain → snapshot.

    Pretraining runs ``pretrain_rounds`` federated rounds (0 = the
    scale's ``pretrain_rounds``) and yields the *origin* model: the
    teacher, contaminated by the backdoor when the spec plants one.
    """
    scenario = build_scenario(scenario_spec, scale, seed=seed, backend=backend)
    history = (
        attach_history(scenario.sim, RoundHistoryStore()) if with_history else None
    )
    scenario.sim.run(pretrain_rounds or scale.pretrain_rounds)
    origin = scenario.sim.global_model()
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
    """Restore the pretrained snapshot and run one of
    :data:`~repro.unlearning.protocols.METHODS` on it.

    A sample-level method forgets the scenario's deletion subset, filed
    here.  A client-level one erases the deleting client whole from the
    round history ``prepared`` recorded, and the sample request stays
    unfiled; ``rng`` seeds FedEraser's calibration.  ``config_override``
    is a :class:`~repro.unlearning.GoldfishConfig` and only ``"ours"``
    takes one; ``round_callback`` and ``backend`` drive the round-based
    flows, so a client-level method takes neither.  An unknown name, or
    a keyword its method does not take, raises ``ValueError`` before the
    snapshot is restored.
    """
    if method not in METHODS:
        raise ValueError(
            f"unknown unlearning method {method!r}; available: {list(METHODS)}"
        )
    if config_override is not None and method != "ours":
        raise ValueError(f"config_override is Goldfish's; {method!r} takes none")
    if method in CLIENT_LEVEL_METHODS:
        for name, value in (("round_callback", round_callback), ("backend", backend)):
            if value is not None:
                raise ValueError(f"{method!r} is client-level and takes no {name}")
    scenario = prepared.scenario
    prepared.snapshot.restore(scenario.sim)
    sim, config, rounds = scenario.sim, scenario.config, scale.unlearn_rounds
    # The flows are called by their module-global names, so a wrapper
    # rebinding those names (bench/trace.py) sees every call.
    if method in CLIENT_LEVEL_METHODS:
        client_id = scenario.deletion_client_id
        if method == "federaser":
            return federated_federaser(sim, config, prepared.history, client_id, rng)
        return federated_fedrecovery(sim, prepared.history, client_id)
    scenario.register_deletion()
    flow = dict(round_callback=round_callback, backend=backend)
    if method == "ours":
        if config_override is None:
            config_override = goldfish_config(scale, train=config)
        return federated_goldfish(sim, config_override, rounds, **flow)
    if method == "b1":
        return federated_retrain(sim, config, rounds, **flow)
    if method == "b2":
        return federated_rapid_retrain(sim, config, rounds, **flow)
    return federated_incompetent_teacher(
        sim, IncompetentTeacherConfig(train=config), rounds, **flow
    )


def evaluate_model(model: Module, scenario: Scenario) -> Dict[str, float]:
    """Accuracy (%) and attack success rate (%) — the tables' two columns.

    Scenarios without an attack (clean deletion) report ``backdoor`` as 0
    so table shapes stay fixed.
    """
    return {"backdoor": 0.0, **scenario.evaluate(model)}


def _resolve_model_and_config(exp: ExperimentSpec, scale: ExperimentScale,
                              seed: int, epochs_override: Optional[int] = None):
    """Dataset + factory + config for the non-federation loops (Fig 6–9)."""
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
# Fig 5 + Tables III–VI
# ----------------------------------------------------------------------
def run_rate_table(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    rates: Sequence[float] = (),
    seed: int = 0,
) -> ExperimentResult:
    """One row of origin + per-method metrics per deletion rate."""
    methods = exp.methods
    rates = tuple(rates) or scale.deletion_rates
    labelled = ("origin",) + tuple(methods)
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=("rate",) + tuple(
            f"{name}_{suffix}" for name in labelled for suffix in ("acc", "bd")
        ),
    )
    for rate in rates:
        scenario = replace(
            exp.scenario, deletion=replace(exp.scenario.deletion, rate=rate)
        )
        prepared = prepare(scenario, scale, seed=seed)
        metrics = {"origin": evaluate_model(prepared.origin, prepared.scenario)}
        for method in methods:
            outcome = run_method(prepared, method, scale)
            metrics[method] = evaluate_model(outcome.global_model, prepared.scenario)
        row: Dict[str, Any] = {"rate": f"{100 * rate:.0f}%"}
        for name in labelled:
            row[f"{name}_acc"] = metrics[name]["acc"]
            row[f"{name}_bd"] = metrics[name]["backdoor"]
        result.add_row(**row)
    for name in labelled:
        result.add_series(
            f"fig5_{name}_backdoor", [row[f"{name}_bd"] for row in result.rows]
        )
    return result


# ----------------------------------------------------------------------
# Fig 4
# ----------------------------------------------------------------------
def run_retrain_curves(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    num_rounds: int = 0,
    seed: int = 0,
) -> ExperimentResult:
    """Per-round retraining accuracy for each method after one deletion."""
    num_rounds = num_rounds or max(scale.unlearn_rounds, 3)
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
    return result


# ----------------------------------------------------------------------
# Tables VII–IX
# ----------------------------------------------------------------------
def run_divergence(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    rates: Sequence[float] = (),
    seed: int = 0,
    *,
    reference: str,
    compared: Sequence[str],
) -> ExperimentResult:
    """JSD / L2 vs the retrained ``reference``; t-test vs the origin model.

    Every method in ``exp.methods`` runs, in that order; the ``compared``
    ones get columns, in that order.
    """
    from ..eval import compare_models
    from ..eval.divergence import t_test_p_value
    from ..training.evaluation import predict_proba

    if reference not in exp.methods:
        raise ValueError(
            f"divergence reference {reference!r} must be one of the spec's "
            f"methods {exp.methods}"
        )
    rates = tuple(rates) or scale.deletion_rates
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=("rate",) + tuple(
            f"{m}_{suffix}" for m in compared for suffix in ("jsd", "l2", "t")
        ),
    )
    for rate in rates:
        scenario = replace(
            exp.scenario, deletion=replace(exp.scenario.deletion, rate=rate)
        )
        prepared = prepare(scenario, scale, seed=seed)
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
    return result


# ----------------------------------------------------------------------
# Tables X–XI
# ----------------------------------------------------------------------
def run_goldfish_variants(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    checkpoints: Sequence[int] = (),
    seed: int = 0,
    *,
    variants: Mapping[str, Mapping[str, Any]],
) -> ExperimentResult:
    """Goldfish loss-config variants evaluated at round checkpoints.

    ``variants`` maps a column name to :func:`goldfish_config` overrides;
    ``checkpoints`` are 1-based rounds (empty = every unlearning round).
    """
    checkpoints = tuple(checkpoints) or tuple(range(1, scale.unlearn_rounds + 1))
    if min(checkpoints) < 1:
        raise ValueError(f"checkpoints must be rounds >= 1, got {checkpoints}")
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
    return result


# ----------------------------------------------------------------------
# Efficiency extension: systems cost of every unlearning method
# ----------------------------------------------------------------------
def run_efficiency(
    exp: ExperimentSpec, scale: ExperimentScale, seed: int = 0, *, notes: str = ""
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
        notes=notes,
    )
    storage_mb = prepared.history.storage_report().total_bytes / _MB
    for method in exp.methods:
        # FedEraser calibrates from a stream of its own, off the run seed.
        rng = np.random.default_rng(seed + 31) if method == "federaser" else None
        outcome = run_method(prepared, method, scale, rng=rng)
        metrics = evaluate_model(outcome.global_model, scenario)
        result.add_row(
            method=method,
            acc=metrics["acc"],
            backdoor=metrics["backdoor"],
            wall_s=outcome.wall_seconds,
            local_epochs=outcome.local_epochs_total,
            comm_mb=outcome.chains * per_state_bytes * 2 / _MB,
            storage_mb=storage_mb if method in CLIENT_LEVEL_METHODS else 0.0,
        )
    return result


# ----------------------------------------------------------------------
# Certification extension: ε̂ / MIA / relearn-time
# ----------------------------------------------------------------------
def run_certification(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    seed: int = 0,
    *,
    reference: str,
    delta: float,
    relearn_max_epochs: int,
    relearn_loss_threshold: float,
    notes: str = "",
) -> ExperimentResult:
    """Certify each method against the retrained ``reference`` method."""
    from ..eval import certify_outputs, membership_attack, relearn_time

    prepared = prepare(exp.scenario, scale, seed=seed)
    scenario = prepared.scenario

    # The certification probe must cover the inputs where retained
    # knowledge of D_f would surface — clean test samples alone never show
    # the backdoor, so half the probe carries the trigger when one exists.
    if scenario.attack is not None:
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

    reference_model = run_method(prepared, reference, scale).global_model

    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title.format(
            dataset=scenario.spec.dataset.name, rate=scenario.spec.deletion.rate
        ),
        columns=("method", "acc", "eps_hat", "mean_jsd", "mia_adv",
                 "relearn_speedup"),
        notes=notes,
    )
    candidates = {"origin": prepared.origin}
    for method in exp.methods:
        if method == reference:
            continue
        candidates[method] = run_method(prepared, method, scale).global_model
    candidates[reference] = reference_model

    for method, model in candidates.items():
        certification = certify_outputs(model, reference_model, probe, delta=delta)
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
    return result


# ----------------------------------------------------------------------
# Fig 6
# ----------------------------------------------------------------------
def run_shard_convergence(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    shard_counts: Sequence[int] = (),
    num_rounds: int = 0,
    seed: int = 0,
) -> ExperimentResult:
    """Per-round accuracy of the shard-aggregated model for each τ."""
    shard_counts = tuple(shard_counts) or scale.shard_counts
    num_rounds = num_rounds or max(3, scale.pretrain_rounds // 2)
    if num_rounds < 1:
        raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
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
    return result


# ----------------------------------------------------------------------
# Fig 7
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
    """One panel: accuracy timeline per shard count at one deletion rate.

    The deletion lands before round ``deletion_round`` (0-based), so the
    round before it is the pre-deletion accuracy.
    """
    shard_counts = tuple(shard_counts) or scale.shard_counts
    num_rounds = num_rounds or deletion_round + max(3, scale.unlearn_rounds)
    if not 1 <= deletion_round < num_rounds:
        raise ValueError(
            f"deletion_round must fall inside the training window "
            f"[1, {num_rounds}), got {deletion_round}"
        )
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
    return result


# ----------------------------------------------------------------------
# Fig 8 panels, Table XII, Fig 9
# ----------------------------------------------------------------------
def run_aggregation_panel(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    num_clients: int,
    num_rounds: int = 0,
    seed: int = 0,
    *,
    aggregators: Mapping[str, str],
) -> ExperimentResult:
    """One heterogeneous-aggregation panel: FedAvg vs ours per round.

    ``aggregators`` maps a series label to a registered aggregator name.
    """
    num_rounds = num_rounds or scale.pretrain_rounds
    train_set, test_set, factory, config = _resolve_model_and_config(
        exp, scale, seed
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
            train_set, test_set, num_clients, rng, strategy=strategy
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
    return result


def run_heterogeneity_table(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    client_counts: Sequence[int] = (),
    seed: int = 0,
) -> ExperimentResult:
    """Table XII: size variance and local-model accuracy spread."""
    client_counts = tuple(client_counts) or scale.client_counts
    train_set, test_set, factory, config = _resolve_model_and_config(
        exp, scale, seed
    )
    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=("clients", "variance", "min_acc", "max_acc"),
    )
    for count in client_counts:
        rng = np.random.default_rng(seed + count)
        fed = make_federated(
            train_set, test_set, count, rng,
            strategy=exp.scenario.partition.strategy,
        )
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
    return result


def run_aggregation_iid(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    client_counts: Sequence[int] = (),
    num_rounds: int = 0,
    seed: int = 0,
    *,
    aggregators: Mapping[str, str],
) -> ExperimentResult:
    """Fig 9: both aggregators should coincide under IID local data."""
    client_counts = tuple(client_counts) or scale.client_counts
    num_rounds = num_rounds or scale.pretrain_rounds
    train_set, test_set, factory, config = _resolve_model_and_config(
        exp, scale, seed
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
    return result
