"""Time-to-forget SLA under seeded Poisson deletion load.

The deletion service turns "how fast do we forget?" into a measurable
service-level quantity: per-request time-to-forget, in federation
rounds, from submission to certification.  This experiment drives an
:class:`~repro.unlearning.service.UnlearningService` with a seeded
Poisson arrival stream (:class:`~repro.unlearning.service.PoissonArrivals`)
under each flush policy and reports the resulting latency distribution
(p50/p95/mean/max rounds) against the two costs the policy trades it
for: rounds of retrain/federation overlap, and retrain chains per
request (the batching amortisation).

The headline p50/p95 of the first policy are also stamped into
``ExperimentResult.runtime["deletion_sla"]`` so persisted trajectories
expose the SLA without parsing rows.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Any, Callable, Dict, Optional, Tuple

from ..data.synthetic import make_dataset
from ..unlearning import (
    BatchSizePolicy,
    DeletionPolicy,
    ImmediatePolicy,
    PeriodicPolicy,
    PoissonArrivals,
    SisaConfig,
    SisaEnsemble,
    UnlearningService,
)
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import ExperimentSpec, _model_factory

COLUMNS = (
    "policy",
    "requests",
    "p50_rounds",
    "p95_rounds",
    "mean_rounds",
    "max_rounds",
    "overlap_rounds",
    "chains",
    "chains_per_req",
)

#: Default policy sweep: lowest-latency first (its p50/p95 becomes the
#: headline ``runtime["deletion_sla"]`` record), then the batching
#: policies that trade latency for fewer chains.
DEFAULT_POLICIES = ("immediate", "batch:2", "periodic:3")


def _make_policy(spec: str) -> DeletionPolicy:
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "immediate":
        return ImmediatePolicy()
    if name == "batch":
        return BatchSizePolicy(int(arg or 2))
    if name == "periodic":
        return PeriodicPolicy(int(arg or 3))
    raise ValueError(
        f"unknown deletion policy spec {spec!r}; "
        "expected immediate, batch:<k> or periodic:<m>"
    )


def _drive(
    service: UnlearningService,
    arrivals: PoissonArrivals,
    num_requests: int,
    max_rounds: int,
    beat: Callable[[int], Any],
) -> int:
    """Feed the arrival stream through the service; returns rounds used.

    ``beat`` advances one round.  Uncontended it is ``service.tick``;
    under contention it is a *real* federation round of an engine the
    service is co-scheduled on (:meth:`UnlearningService.co_schedule`
    ticks from the engine's pre-round hook), so deletion windows and
    client training tickets share the same backend workers and the
    metered time-to-forget includes queueing behind live training.
    """
    submitted = 0
    round_index = 0
    while round_index < max_rounds:
        for request_id, indices in arrivals.arrivals(round_index):
            if submitted >= num_requests:
                break
            service.submit(
                client_id=0,
                indices=indices,
                round_index=round_index,
                request_id=request_id,
            )
            submitted += 1
        beat(round_index)
        round_index += 1
        if submitted >= num_requests and not (
            service.windows_in_flight or service.manager.num_pending
        ):
            break
    # Shutdown drain: whatever the policy left queued (a lone request a
    # BatchSizePolicy will never fire for, say) flushes immediately now —
    # the operator's "certify everything before stopping" barrier.  Each
    # pass flushes every free-shard request and drains it, so the bound
    # is never reached in practice.
    service.manager.policy = ImmediatePolicy()
    for _ in range(max_rounds):
        if not service.manager.num_pending:
            break
        service.tick(round_index)
        service.drain(round_index)
        round_index += 1
    service.drain(round_index)
    return round_index


def _make_contention_sim(train, test, model_name, scale, seed, backend):
    """A small buffered-async federation over the same backend, purely to
    generate training load for the contended SLA measurement."""
    import numpy as np

    from ..data.partition import make_federated
    from ..federated import FedAvgAggregator, FederatedSimulation
    from ..federated.engine import AsyncRoundConfig, SeededLatency
    from ..training import TrainConfig

    fed = make_federated(
        train, test, num_clients=4, rng=np.random.default_rng(seed + 1000)
    )
    config = TrainConfig(
        epochs=1,
        batch_size=scale.batch_size,
        learning_rate=scale.learning_rate_for(model_name),
    )
    return FederatedSimulation(
        _model_factory(train, model_name),
        fed,
        FedAvgAggregator(),
        config,
        seed=seed + 2000,
        backend=backend,
        async_config=AsyncRoundConfig(buffer_size=2),
        latency_model=SeededLatency(seed=seed + 3000),
    )


def run_deletion_sla(
    exp: ExperimentSpec,
    scale: ExperimentScale,
    seed: int = 0,
    backend: Any = None,
    **_: Any,
) -> ExperimentResult:
    """Meter p50/p95 time-to-forget per flush policy under Poisson load.

    ``exp.params`` knobs (all optional): ``rate`` (arrivals per round,
    default 1.0), ``num_requests`` (default 6), ``indices_per_request``
    (default 2), ``num_shards``/``num_slices`` (SISA geometry, defaults
    from the scale's first shard count and 2), ``policies`` (sequence of
    policy specs, default ``immediate, batch:2, periodic:3``),
    ``contention`` (default False — when set, every scheduling beat is a
    live buffered-async federation round co-scheduled on the same
    backend, so time-to-forget is metered under training load).
    """
    params = exp.params
    rate = float(params.get("rate", 1.0))
    contention = bool(params.get("contention", False))
    num_requests = int(params.get("num_requests", 6))
    indices_per_request = int(params.get("indices_per_request", 2))
    num_shards = int(params.get("num_shards", exp_shards(scale)))
    num_slices = int(params.get("num_slices", 2))
    policies: Tuple[str, ...] = tuple(params.get("policies", DEFAULT_POLICIES))
    max_rounds = int(params.get("max_rounds", 50 + 4 * num_requests))

    dataset_name = exp.scenario.dataset.name
    train, test_set = make_dataset(
        dataset_name, scale.train_size, scale.test_size, seed=seed
    )
    model_name = scale.models.get(dataset_name, "mlp")
    sisa = SisaConfig(
        num_shards=num_shards,
        num_slices=num_slices,
        epochs_per_slice=1,
        batch_size=scale.batch_size,
    )

    result = ExperimentResult(
        experiment_id=exp.experiment_id,
        title=exp.title,
        columns=COLUMNS,
    )
    headline: Optional[Dict[str, Any]] = None
    workspace = tempfile.mkdtemp(prefix="deletion-sla-")
    try:
        for position, policy_spec in enumerate(policies):
            factory = _model_factory(train, model_name)
            ensemble = SisaEnsemble(
                factory, train, sisa, seed=seed, backend=backend
            ).fit()
            service = UnlearningService(
                ensemble,
                directory=f"{workspace}/{position}-{policy_spec.replace(':', '-')}",
                policy=_make_policy(policy_spec),
                backend=backend if contention else None,
                seed=seed,
            )
            # Same seed → the identical request stream hits every policy.
            arrivals = PoissonArrivals(
                rate,
                num_samples=len(train),
                seed=seed,
                indices_per_request=indices_per_request,
            )
            beat = service.tick
            if contention:
                engine = _make_contention_sim(
                    train, test_set, model_name, scale, seed, backend
                ).engine()
                service.co_schedule(engine)
                beat = engine.run_round
            _drive(service, arrivals, num_requests, max_rounds, beat)
            report = service.sla.report()
            manager = service.manager
            chains = manager.total_chains_submitted
            certified = int(report["certified_requests"])
            row: Dict[str, Any] = {
                "policy": policy_spec,
                "requests": certified,
                # SlaMeter.report() leaves these out until a request certifies.
                "p50_rounds": float(report.get("p50_rounds", 0.0)),
                "p95_rounds": float(report.get("p95_rounds", 0.0)),
                "mean_rounds": float(report.get("mean_rounds", 0.0)),
                "max_rounds": int(report.get("max_rounds", 0)),
                "overlap_rounds": manager.total_overlap_rounds,
                "chains": chains,
                "chains_per_req": chains / certified if certified else 0.0,
            }
            result.add_row(**row)
            if headline is None:
                headline = {
                    "policy": policy_spec,
                    "p50_rounds": row["p50_rounds"],
                    "p95_rounds": row["p95_rounds"],
                    "contention": contention,
                }
            service.close()
    finally:
        shutil.rmtree(workspace, ignore_errors=True)
    if headline is not None:
        result.runtime["deletion_sla"] = headline
    result.spec_hash = exp.hash()
    return result


def exp_shards(scale: ExperimentScale) -> int:
    """The scale's smallest shard count — cheap and still multi-shard."""
    return min(scale.shard_counts) if scale.shard_counts else 3
