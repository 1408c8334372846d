"""Event-driven federation engine: buffered async rounds without barriers.

:class:`~repro.federated.simulation.FederatedSimulation.run_round` is a
hard barrier — every client must finish local training before the
server aggregates.  One slow client therefore stalls the whole round, and
anything else sharing the worker pool (a deletion-window retrain chain,
say) waits behind the federation.  This module removes the barrier:

* client tasks are submitted to the backend **as a stream** (one
  :meth:`~repro.runtime.pool.WorkerPool.submit` ticket per client, drained
  out of order as events fire), so workers never idle waiting for a round
  boundary and other work — notably
  :class:`~repro.unlearning.service.UnlearningService` retrain
  chains — interleaves with client training on the same pool;
* a FedBuff-style buffered aggregator
  (:class:`~repro.federated.aggregation.BufferedAggregator`) folds results
  into the global model whenever ``buffer_size`` updates arrive, weighting
  each update down by its staleness, instead of waiting for the cohort;
* stragglers are governed by a **simulated latency model**: a client whose
  drawn latency exceeds ``straggler_timeout`` is dropped from the round
  (it is dispatched again next round) and accounted in the
  :class:`~repro.federated.simulation.RoundRecord`.

Determinism
-----------
Real completion order on a pool is scheduler-dependent, so the engine
never uses it.  Every dispatch draws a latency from a
:class:`LatencyModel` — a pure function of ``(seed, client_id,
dispatch_index)`` — and events are consumed in **virtual-arrival order**
(ties broken by client id).  Tasks themselves are pure (state + RNG
position in, state + RNG position out; see :mod:`repro.runtime.task`), so
the run is bit-identical for a given seed and latency model on every
backend: serial, pool or cluster.  Parallel hardware changes only
the wall-clock.

The synchronous path is untouched: a simulation without an
:class:`AsyncRoundConfig` never constructs an engine and keeps its
historical barrier loop bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

import numpy as np

from ..runtime import TransportStats, dense_nbytes, state_version
from ..runtime.task import TrainResult, TrainTask
from . import state_math
from .aggregation import BufferedAggregator, BufferedUpdate, FedAvgAggregator
from .state_math import StateDict
from .vectorized import backend_worker_count, plan_cohort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (simulation → engine)
    from .client import Client
    from .simulation import FederatedSimulation, RoundRecord


# ----------------------------------------------------------------------
# Simulated latency models
# ----------------------------------------------------------------------
class LatencyModel:
    """Interface: simulated local-training latency for one dispatch.

    Implementations must be **pure**: the same ``(client_id,
    dispatch_index)`` always yields the same latency, with no internal
    state advanced by the call.  That is what makes the event order — and
    therefore the whole async run — a deterministic function of the seed,
    independent of which worker really finishes first.
    """

    def sample(self, client_id: int, dispatch_index: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantLatency(LatencyModel):
    """Every dispatch takes the same simulated time (ties → client order).

    The degenerate model: with a full-cohort buffer it reproduces the
    synchronous schedule exactly, which is what the engine's fallback
    uses when no model is configured.
    """

    value: float = 1.0

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"latency must be positive, got {self.value}")

    def sample(self, client_id: int, dispatch_index: int) -> float:
        return self.value


@dataclass(frozen=True)
class SeededLatency(LatencyModel):
    """Deterministic pseudo-random latency with optional chronic stragglers.

    Each dispatch draws uniformly from ``[low, high)`` using a generator
    seeded by ``(seed, client_id, dispatch_index)`` — a pure function, so
    no draw depends on event order.  When ``slow_every`` is set, every
    ``slow_every``-th client id is a chronic straggler whose draws are
    multiplied by ``slow_factor`` — the knob the straggler-timeout tests
    and benchmarks use to manufacture predictable drops.
    """

    low: float = 0.5
    high: float = 1.5
    seed: int = 0
    slow_every: int = 0
    slow_factor: float = 4.0

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high:
            raise ValueError(
                f"need 0 < low <= high, got low={self.low}, high={self.high}"
            )
        if self.slow_every < 0:
            raise ValueError(f"slow_every must be >= 0, got {self.slow_every}")
        if self.slow_factor < 1.0:
            raise ValueError(f"slow_factor must be >= 1, got {self.slow_factor}")

    def sample(self, client_id: int, dispatch_index: int) -> float:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, int(client_id), int(dispatch_index)])
        )
        latency = float(rng.uniform(self.low, self.high))
        if self.slow_every and (int(client_id) + 1) % self.slow_every == 0:
            latency *= self.slow_factor
        return latency


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AsyncRoundConfig:
    """Knobs of the buffered-async round loop.

    buffer_size:
        Updates folded per aggregation event.  ``0`` means "everything
        currently in flight" — streaming dispatch with full-cohort folds.
    max_staleness:
        Updates computed against a global version more than this many
        folds old are discarded (their client redispatches with a fresh
        model next round).
    straggler_timeout:
        Simulated-time budget per dispatch; a client whose drawn latency
        exceeds it is dropped from the round.
        ``0`` disables the timeout.
    staleness_exponent:
        The polynomial discount of
        :class:`~repro.federated.aggregation.BufferedAggregator`.
    """

    buffer_size: int = 0
    max_staleness: int = 4
    straggler_timeout: float = 0.0
    staleness_exponent: float = 0.5

    def __post_init__(self) -> None:
        if self.buffer_size < 0:
            raise ValueError(f"buffer_size must be >= 0, got {self.buffer_size}")
        if self.max_staleness < 0:
            raise ValueError(f"max_staleness must be >= 0, got {self.max_staleness}")
        if self.straggler_timeout < 0:
            raise ValueError(
                f"straggler_timeout must be >= 0, got {self.straggler_timeout}"
            )
        if self.staleness_exponent < 0:
            raise ValueError(
                f"staleness_exponent must be >= 0, got {self.staleness_exponent}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "buffer_size": self.buffer_size,
            "max_staleness": self.max_staleness,
            "straggler_timeout": self.straggler_timeout,
            "staleness_exponent": self.staleness_exponent,
        }


@dataclass
class _VecGroup:
    """One vectorized cohort dispatch shared by its members' in-flight
    entries.

    The cohort's training runs as a batch of contiguous stack chunks
    (:meth:`~repro.runtime.task.StackedTask.split` sized to the
    backend's workers, so vectorization and the pool/cluster compose —
    the synchronous path's own :func:`~.vectorized.plan_cohort`)
    the first time any member's arrival needs a result; the
    per-member results are then handed out as each member's own virtual
    arrival fires.  Virtual arrival times — and therefore fold
    membership, staleness and drop behaviour — stay per-member, exactly
    as in per-client dispatch.
    """

    chunks: List[Any]  # StackedTask chunks, member order
    ticket: Optional[int]  # one pool ticket covering every chunk
    results: Optional[List[TrainResult]] = None  # flattened, member order


@dataclass
class _InFlight:
    """One dispatched client task awaiting its virtual arrival."""

    client: "Client"
    task: TrainTask
    ticket: Optional[int]  # pool ticket when the backend streams, else None
    basis: StateDict  # the global state broadcast at dispatch
    version: int  # global version at dispatch (staleness basis)
    dispatched_at: float
    arrives_at: float
    round_index: int
    group: Optional[_VecGroup] = None  # vectorized-cohort membership
    member: int = 0  # this client's slice index within the group


class BufferedRoundEngine:
    """Drive a :class:`~repro.federated.simulation.FederatedSimulation`
    through buffered-async rounds.

    One engine "round" is one *aggregation event*: dispatch the clients
    not already in flight, then consume virtual arrivals until
    ``buffer_size`` acceptable updates are buffered and fold them into
    the global model.  Clients still in flight at the fold
    simply keep computing — their updates arrive in later rounds with
    staleness ≥ 1.

    Backends with ``submit``/``drain``/``poll`` (the worker pool) receive
    one ticket per client at dispatch time, so real execution overlaps
    both the virtual schedule and any other tickets on the pool; plain
    backends run each task lazily when its arrival event fires, with
    bit-identical results.
    """

    def __init__(
        self,
        sim: "FederatedSimulation",
        config: Optional[AsyncRoundConfig] = None,
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        self.sim = sim
        self.config = config if config is not None else AsyncRoundConfig()
        self.latency_model = (
            latency_model if latency_model is not None else ConstantLatency()
        )
        aggregator = sim.server.aggregator
        if not isinstance(aggregator, FedAvgAggregator):
            # Silently substituting size-weighted folds for e.g. the
            # adaptive quality-weighted aggregator would attribute results
            # to a configuration that never ran — refuse instead.
            raise ValueError(
                f"async rounds support FedAvg-family aggregation only; got "
                f"{type(aggregator).__name__}.  Run this aggregator "
                "synchronously, or extend BufferedAggregator with its "
                "weighting."
            )
        self.aggregator = BufferedAggregator(
            weighting=aggregator.weighting,
            staleness_exponent=self.config.staleness_exponent,
        )
        backend = sim.backend
        self._streams = all(
            hasattr(backend, name) for name in ("submit", "drain", "poll")
        )
        self.version = 0  # completed folds
        self.now = 0.0  # virtual clock
        self._inflight: Dict[int, _InFlight] = {}
        self._dispatch_counts: Dict[int, int] = {}
        # Called with the round index before anything is dispatched —
        # the seam a co-scheduled service (e.g. the unlearning deletion
        # pipeline's per-round tick) hooks to absorb finished work and
        # submit new windows in lockstep with federation rounds.
        self.pre_round_hooks: List[Callable[[int], None]] = []
        # Cumulative accounting across the engine's lifetime.
        self.total_dropped = 0
        self.total_stale_discarded = 0
        self.total_dispatched = 0
        # Per-round transport accounting (reset by run_round; folded into
        # the simulation's cumulative totals as it goes).  On a streaming
        # (pool) backend the real pipe bytes of each client ticket are
        # claimed when the ticket resolves; on lazy backends dispatch
        # charges the dense broadcast and resolution the encoded return.
        self._round_transport = TransportStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight_clients(self) -> List[int]:
        return sorted(self._inflight)

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def run_round(
        self, round_index: int, record_client_metrics: bool = False
    ) -> "RoundRecord":
        """One aggregation event: dispatch the cohort, fold the buffer."""
        from ..training.evaluation import evaluate
        from .simulation import RoundRecord

        for hook in self.pre_round_hooks:
            hook(round_index)
        self._round_transport = TransportStats()
        dropped = self._dispatch(round_index)
        if not self._inflight:
            raise RuntimeError(
                f"round {round_index}: no clients in flight — the straggler "
                f"timeout ({self.config.straggler_timeout}) drops every "
                "client under the configured latency model"
            )
        global_before = self.sim.server.global_state
        applied, discarded = self._collect()
        if applied:
            new_state = self.aggregator.fold(global_before, applied)
            self.sim.server.install(new_state)
            self.version += 1
        # History retention and cost accounting see exactly what was folded.
        self.sim.last_participants = [
            self.sim.clients[update.client_id] for update in applied
        ]
        client_accuracies: List[float] = []
        if record_client_metrics:
            for update in applied:
                _, acc = evaluate(
                    self.sim.clients[update.client_id].model,
                    self.sim.fed_data.test_set,
                )
                client_accuracies.append(acc)
        loss, accuracy = self.sim.server.evaluate_global()
        round_transport = self._round_transport
        self._round_transport = TransportStats()
        self.sim.transport.add(round_transport)
        return RoundRecord(
            round_index=round_index,
            global_loss=loss,
            global_accuracy=accuracy,
            client_accuracies=client_accuracies,
            applied_clients=[u.client_id for u in applied],
            staleness=[u.staleness for u in applied],
            dropped_clients=dropped,
            stale_discarded=discarded,
            sim_time=self.now,
            version=self.version,
            bytes_down=round_transport.bytes_down,
            bytes_up=round_transport.bytes_up,
        )

    def _dispatch(self, round_index: int) -> List[int]:
        """Stream the idle clients' tasks; return straggler drops.

        With ``sim.vectorize`` set, an eligible dispatch wave (the
        members not already in flight and not timed out) becomes one
        :class:`~repro.runtime.task.StackedTask` shared through a
        :class:`_VecGroup` — per-member latencies, arrival
        events and the lazy per-member dense downlink charge are
        unchanged, so the virtual schedule and the folded results are
        identical to per-client dispatch.
        """
        dropped: List[int] = []
        wave: List[tuple] = []  # (client, latency) surviving the timeout
        for client in self.sim.clients:
            client_id = client.client_id
            if client_id in self._inflight:
                continue  # still computing a previous dispatch
            count = self._dispatch_counts.get(client_id, 0)
            self._dispatch_counts[client_id] = count + 1
            latency = self.latency_model.sample(client_id, count)
            timeout = self.config.straggler_timeout
            if timeout and latency > timeout:
                dropped.append(client_id)
                continue
            wave.append((client, latency))
        if wave:
            broadcast_state = self.sim.server.global_state
            # One hash per dispatch wave — every member of the cohort
            # receives this same state.
            model_version = state_version(broadcast_state) if self._streams else None
            for client, _ in wave:
                client.receive_global(broadcast_state)
            tasks = [
                client.make_train_task(
                    self.sim.train_config,
                    self.sim.model_factory,
                    codec=self.sim.codec,
                    model_version=model_version,
                )
                for client, _ in wave
            ]
            group: Optional[_VecGroup] = None
            if self.sim.vectorize:
                plan = plan_cohort(
                    tasks, backend_worker_count(self.sim.backend), broadcast_state
                )
                self.sim._vectorize_stats.tally(plan)
                if plan.fused_groups:
                    # One wave is one cohort (one codec, one broadcast
                    # version), so a fused plan's units are its chunks.
                    chunks = plan.units
                    ticket = (
                        self.sim.backend.submit(chunks) if self._streams else None
                    )
                    group = _VecGroup(chunks=chunks, ticket=ticket)
            for member, ((client, latency), task) in enumerate(zip(wave, tasks)):
                ticket = None
                if group is None and self._streams:
                    ticket = self.sim.backend.submit([task])
                if ticket is None and (group is None or group.ticket is None):
                    # Lazy backends ship the dense state at dispatch —
                    # per member, vectorized or not (execution fusing
                    # must not change simulated transport); pool tickets
                    # are priced from real pipe bytes at resolution.
                    self._round_transport.bytes_down += dense_nbytes(broadcast_state)
                    self._round_transport.broadcast_full += 1
                self._inflight[client.client_id] = _InFlight(
                    client=client,
                    task=task,
                    ticket=ticket,
                    basis=broadcast_state,
                    version=self.version,
                    dispatched_at=self.now,
                    arrives_at=self.now + latency,
                    round_index=round_index,
                    group=group,
                    member=member,
                )
                self.total_dispatched += 1
        self.total_dropped += len(dropped)
        return dropped

    def _collect(self) -> "tuple[List[BufferedUpdate], List[int]]":
        """Consume virtual arrivals until the buffer target is reached."""
        target = self.config.buffer_size or len(self._inflight)
        applied: List[BufferedUpdate] = []
        discarded: List[int] = []
        while len(applied) < target and self._inflight:
            entry = min(
                self._inflight.values(),
                key=lambda e: (e.arrives_at, e.client.client_id),
            )
            client_id = entry.client.client_id
            del self._inflight[client_id]
            self.now = max(self.now, entry.arrives_at)
            staleness = self.version - entry.version
            if staleness > self.config.max_staleness:
                # Too old to fold: discard without absorbing, so the
                # client's RNG position is exactly as if it never trained.
                # Staleness is known before resolving, so a lazy backend
                # skips the training run entirely; a pool ticket is still
                # drained (the work already ran — and its bytes crossed
                # the wire, so they are still accounted) to keep the pool
                # clean.  A vectorized-group member behaves like a pool
                # ticket: its training ran (or will run) as part of the
                # group's single unit, so its return bytes are accounted.
                if entry.group is not None:
                    late = self._member_result(entry)
                    self._round_transport.bytes_up += late.update_nbytes
                elif entry.ticket is not None:
                    late = self.sim.backend.drain(entry.ticket)[0]
                    self._claim_ticket_stats(entry.ticket)
                    self._round_transport.bytes_up += late.update_nbytes
                discarded.append(client_id)
                self.total_stale_discarded += 1
                continue
            result = self._resolve(entry)
            entry.client.absorb_train_result(result, basis=entry.basis)
            upload = entry.client.upload()
            applied.append(
                BufferedUpdate(
                    client_id=client_id,
                    delta=state_math.subtract(upload.state, entry.basis),
                    num_samples=upload.num_samples,
                    staleness=staleness,
                    state=upload.state,
                )
            )
        return applied, discarded

    def _resolve(self, entry: _InFlight) -> TrainResult:
        """The task's result — drained from its ticket, or run lazily."""
        if entry.group is not None:
            result = self._member_result(entry)
        elif entry.ticket is not None:
            result = self.sim.backend.drain(entry.ticket)[0]
            self._claim_ticket_stats(entry.ticket)
        else:
            result = self.sim.backend.run_tasks([entry.task])[0]
        # Uplink is uniform across backends: the encoded return payload,
        # never the pipe's framing overhead (see account_model_traffic).
        self._round_transport.bytes_up += result.update_nbytes
        return result

    def _member_result(self, entry: _InFlight) -> TrainResult:
        """This member's result from its vectorized group, resolving the
        group's single training unit on first need."""
        group = entry.group
        if group.results is None:
            if group.ticket is not None:
                per_chunk = self.sim.backend.drain(group.ticket)
                self._claim_ticket_stats(group.ticket)
                group.ticket = None
            else:
                per_chunk = self.sim.backend.run_tasks(group.chunks)
            # Chunks partition the cohort contiguously in member order,
            # so flattening their per-member result lists restores the
            # original member indexing.
            group.results = [
                result for chunk_results in per_chunk for result in chunk_results
            ]
        return group.results[entry.member]

    def _claim_ticket_stats(self, ticket: int) -> None:
        """Fold one resolved pool ticket's downlink bytes into the round.

        Only the download side and the broadcast wire-form counts are
        taken from the pipe stats — uplink is charged from the result's
        encoded payload size in :meth:`_resolve`, identically to the
        non-pool backends.
        """
        pop = getattr(self.sim.backend, "pop_ticket_stats", None)
        if pop is None:
            return
        stats = pop(ticket)
        if stats is not None:
            stats.bytes_up = 0
            self._round_transport.add(stats)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def abandon_inflight(self) -> List[int]:
        """Discard every in-flight dispatch (end of a run).

        Outstanding pool tickets are drained so the shared pool carries no
        orphaned batches, but no result is absorbed — the abandoned
        clients' RNG positions and models are exactly as if the dispatch
        never happened, keeping subsequent runs deterministic.
        """
        abandoned = sorted(self._inflight)
        for client_id in abandoned:
            entry = self._inflight.pop(client_id)
            if entry.group is not None:
                # A group with a pool ticket (or already-resolved results)
                # did real work that must be drained/accounted; a lazy,
                # never-resolved group simply never runs — like a lazy
                # per-client entry.
                if entry.group.ticket is not None or entry.group.results is not None:
                    orphan = self._member_result(entry)
                    self._round_transport.bytes_up += orphan.update_nbytes
            elif entry.ticket is not None:
                orphan = self.sim.backend.drain(entry.ticket)[0]
                self._claim_ticket_stats(entry.ticket)
                self._round_transport.bytes_up += orphan.update_nbytes
        # Abandoned work still crossed the wire: charge it to the
        # simulation's cumulative totals (there is no round to carry it).
        self.sim.transport.add(self._round_transport)
        self._round_transport = TransportStats()
        return abandoned

    def provenance(self) -> Dict[str, Any]:
        """Engine facts worth stamping into experiment results."""
        return {
            "engine": "async",
            **self.config.to_dict(),
            "latency_model": type(self.latency_model).__name__,
            "codec": self.sim.codec,
            "dispatched": self.total_dispatched,
            "dropped": self.total_dropped,
            "stale_discarded": self.total_stale_discarded,
            "folds": self.version,
            "sim_time": round(self.now, 6),
        }
