"""Round-based federated-learning simulation.

:class:`FederatedSimulation` wires clients, server and aggregator together
and runs synchronous FL rounds (Algorithm 1's outer loop in the
no-deletion case). The unlearning protocols in
:mod:`repro.unlearning.protocols` drive the same objects through the
deletion path.

Execution backends
------------------
Local training inside a round is embarrassingly parallel: every
participant works on its own model replica and its own data. The
simulation therefore emits one pure :class:`~repro.runtime.TrainTask` per
participant and fans them out through a pluggable
:class:`~repro.runtime.Backend` (``backend="serial"`` by default, which is
bit-identical to the historical inline loop; ``"pool"`` and
``"cluster"`` parallelise rounds without changing any result, because
each task carries and returns its client's exact RNG position).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, List, Optional, TYPE_CHECKING

import numpy as np

from ..data.dataset import ArrayDataset, FederatedDataset
from ..nn.module import Module
from ..runtime import (
    BackendLike,
    TransportStats,
    dense_nbytes,
    get_backend,
    get_codec,
    state_version,
)
from ..training.config import TrainConfig
from ..training.evaluation import evaluate
from .aggregation import Aggregator, AdaptiveWeightAggregator, FedAvgAggregator
from .client import Client
from .server import Server
from .vectorized import (
    VectorizeStats,
    backend_worker_count,
    plan_cohort,
    scatter_results,
)

if TYPE_CHECKING:  # pragma: no cover - circular import guard
    from .engine import AsyncRoundConfig, BufferedRoundEngine, LatencyModel


logger = logging.getLogger(__name__)


@dataclass
class RoundRecord:
    """Metrics for one completed FL round.

    The first four fields are filled by every round; the rest default to
    empty/zero on the synchronous path and are populated by the
    event-driven engine (:mod:`repro.federated.engine`): which clients'
    updates were folded (and at what staleness), which were dropped as
    stragglers or discarded as too stale, the virtual clock at the fold
    and the global version it produced.

    ``bytes_down``/``bytes_up`` are the round's model traffic on the wire
    under the active transport: broadcast bytes dispatched to
    participants (actual pipe bytes when the backend runs the
    version-addressed worker pool, dense model bytes otherwise) and the
    encoded size of every client return (uniform across backends — the
    update codec runs inside the task).
    """

    round_index: int
    global_loss: float
    global_accuracy: float
    client_accuracies: List[float] = field(default_factory=list)
    applied_clients: List[int] = field(default_factory=list)
    staleness: List[int] = field(default_factory=list)
    dropped_clients: List[int] = field(default_factory=list)
    stale_discarded: List[int] = field(default_factory=list)
    sim_time: float = 0.0
    version: int = 0
    bytes_down: int = 0
    bytes_up: int = 0


@dataclass
class SimulationHistory:
    """Per-round records of a simulation run."""

    rounds: List[RoundRecord] = field(default_factory=list)

    @property
    def accuracies(self) -> List[float]:
        return [r.global_accuracy for r in self.rounds]

    @property
    def final_accuracy(self) -> float:
        if not self.rounds:
            raise ValueError("no rounds recorded")
        return self.rounds[-1].global_accuracy

    def __len__(self) -> int:
        return len(self.rounds)


# Model-state payloads a task may carry down the wire: the stock
# TrainTask/ChainTask broadcast bases plus the protocol task shapes
# (Goldfish students and round-0 teacher, B3's competent/incompetent
# teachers).  Goldfish rounds >= 1 carry the teacher's logits instead.
_TASK_STATE_FIELDS = (
    "model_state",
    "init_state",
    "student_state",
    "teacher_state",
    "competent_state",
    "incompetent_state",
)


def _task_state_nbytes(task) -> int:
    nbytes = sum(
        dense_nbytes(state)
        for field_name in _TASK_STATE_FIELDS
        if (state := getattr(task, field_name, None)) is not None
    )
    teacher_logits = getattr(task, "teacher_logits", None)
    if teacher_logits is not None:
        nbytes += teacher_logits.nbytes
    return nbytes


def _result_wire_nbytes(result) -> int:
    nbytes = getattr(result, "update_nbytes", None)
    if nbytes is not None:
        return nbytes
    state = getattr(result, "state", None)
    return dense_nbytes(state) if isinstance(state, dict) else 0


def account_model_traffic(backend, tasks, results) -> TransportStats:
    """One task batch's model traffic under the active transport.

    Downlink is transport-dependent by design: a pool backend reports
    the actual framed pipe bytes of the batch it just ran (broadcasts
    shipped ref/delta/full against the worker caches), while in-process
    and fork-per-call backends ship every task its dense model state(s),
    so that is what is charged.  Uplink is **uniform across backends**:
    the encoded return size where the task went through an update codec
    (the codec runs inside the task, identically everywhere) and the
    dense returned state otherwise — never the pipe's framing overhead,
    so serial and pool runs report the same per-round ``bytes_up``.
    """
    stats = getattr(backend, "last_batch_stats", None)
    batch_stats = TransportStats()
    if stats is not None:
        batch_stats.add(stats)
    else:
        batch_stats.bytes_down = sum(_task_state_nbytes(task) for task in tasks)
        batch_stats.broadcast_full = len(tasks)
    batch_stats.bytes_up = sum(_result_wire_nbytes(result) for result in results)
    return batch_stats


def make_aggregator(
    name: str,
    test_set: Optional[ArrayDataset] = None,
    model_factory: Optional[Callable[[], Module]] = None,
) -> Aggregator:
    """Build an aggregator by name.

    ``"fedavg"`` = size-weighted FedAvg, ``"fedavg_uniform"`` = plain mean,
    ``"adaptive"`` = the paper's quality-weighted extension (needs the
    server test set and a model factory for scoring uploads).
    """
    if name == "fedavg":
        return FedAvgAggregator()
    if name == "fedavg_uniform":
        return FedAvgAggregator(weighting="uniform")
    if name == "adaptive":
        if test_set is None or model_factory is None:
            raise ValueError("adaptive aggregation needs test_set and model_factory")
        return AdaptiveWeightAggregator(test_set, model_factory)
    raise ValueError(
        f"unknown aggregator {name!r}; "
        "available: ['fedavg', 'fedavg_uniform', 'adaptive']"
    )


class FederatedSimulation:
    """Synchronous FL over in-process clients.

    Parameters
    ----------
    model_factory:
        Zero-argument callable producing a fresh model. Used for the global
        model and every client replica (all share one architecture).
    fed_data:
        Client datasets plus the server-side test set.
    aggregator:
        Aggregation strategy instance.
    train_config:
        Local-training hyper-parameters applied at every client.
    seed:
        Base seed; every client derives an independent child generator, so
        runs are reproducible regardless of client count.
    backend:
        Execution backend for per-client local training — ``None``/
        ``"serial"`` (default), ``"pool"``, ``"cluster"``, or
        a :class:`~repro.runtime.Backend` instance. Results are identical
        across backends; only wall-clock time changes.
    codec:
        :mod:`~repro.runtime.codec` spec for client returns — ``"raw"``
        (default, the historical dense-state return, bit for bit),
        ``"delta"`` (lossless, bit-identical by construction), or the
        opt-in lossy ``"topk:<frac>"`` / ``"quant:<bits>"``
        (deterministic per seed).  Per-round byte counts land in
        :class:`RoundRecord` and cumulative totals in
        :meth:`transport_report`.
    vectorize:
        Opt-in client-vectorized execution
        (:mod:`repro.federated.vectorized`): eligible homogeneous
        cohorts — same architecture, dtype, train config and step count —
        train as **one** stacked forward/backward per round-step instead
        of K per-client graphs, with bit-identical results.  Ineligible
        cohorts (single participant, unstackable layers, step counts
        that differ) fall back to the per-client path; the reason is
        logged once and tallied in :meth:`vectorize_report`.
        Off by default — existing results are untouched.
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        fed_data: FederatedDataset,
        aggregator: Aggregator,
        train_config: TrainConfig,
        seed: int = 0,
        backend: BackendLike = None,
        async_config: Optional["AsyncRoundConfig"] = None,
        latency_model: Optional["LatencyModel"] = None,
        codec: str = "raw",
        vectorize: bool = False,
    ) -> None:
        if fed_data.num_clients == 0:
            raise ValueError("no clients in federated dataset")
        self.model_factory = model_factory
        self.fed_data = fed_data
        self.train_config = train_config
        self.backend = get_backend(backend)
        get_codec(codec)  # fail fast on typos, before any training
        self.codec = codec
        self.transport = TransportStats()  # cumulative model traffic
        # Opt-in vectorized client execution (repro.federated.vectorized):
        # eligible homogeneous cohorts train as one stacked graph, with
        # bit-identical results; ineligible cohorts fall back per client
        # with the reason recorded in vectorize_report() (and logged once).
        self.vectorize = vectorize
        self._vectorize_stats = VectorizeStats(logger)
        # Buffered-async mode is strictly opt-in: without an AsyncRoundConfig
        # no engine is ever constructed and every round runs the historical
        # synchronous barrier loop bit for bit.
        self.async_config = async_config
        self.latency_model = latency_model
        self._engine = None
        seeds = np.random.SeedSequence(seed).spawn(fed_data.num_clients)
        self.clients: List[Client] = [
            Client(
                client_id=index,
                dataset=dataset,
                model=model_factory(),
                rng=np.random.default_rng(seeds[index]),
            )
            for index, dataset in enumerate(fed_data.client_datasets)
        ]
        self.server = Server(model_factory(), aggregator, test_set=fed_data.test_set)
        # Whose updates the most recent round folded: every client on the
        # synchronous path; the async engine narrows it to the arrivals it
        # folded.  History recording reads this.
        self.last_participants: List[Client] = self.clients

    def engine(self) -> "BufferedRoundEngine":
        """The lazily-built event-driven engine (async mode only)."""
        if self.async_config is None:
            raise ValueError(
                "simulation was not configured for async rounds; pass "
                "async_config=AsyncRoundConfig(...) to the constructor"
            )
        if self._engine is None:
            from .engine import BufferedRoundEngine

            self._engine = BufferedRoundEngine(
                self, self.async_config, self.latency_model
            )
        return self._engine

    def run_round(self, round_index: int, record_client_metrics: bool = False) -> RoundRecord:
        """One round: synchronous barrier by default, buffered-async fold
        (:mod:`repro.federated.engine`) when ``async_config`` is set."""
        if self.async_config is not None:
            return self.engine().run_round(round_index, record_client_metrics)
        self.server.broadcast(self.clients)
        # One broadcast, one hash: every client carries the same
        # global state, so the transport's version is computed here once
        # (pool dispatch would otherwise hash each task's copy).
        model_version = self.broadcast_version()
        tasks = [
            client.make_train_task(
                self.train_config,
                self.model_factory,
                codec=self.codec,
                model_version=model_version,
            )
            for client in self.clients
        ]
        results, round_stats = self._run_cohort(tasks)
        updates = []
        client_accuracies: List[float] = []
        for client, result in zip(self.clients, results):
            client.absorb_train_result(result)
            if record_client_metrics:
                _, acc = evaluate(client.model, self.fed_data.test_set)
                client_accuracies.append(acc)
            updates.append(client.upload())
        self.server.aggregate(updates)
        loss, accuracy = self.server.evaluate_global()
        return RoundRecord(
            round_index=round_index,
            global_loss=loss,
            global_accuracy=accuracy,
            client_accuracies=client_accuracies,
            bytes_down=round_stats.bytes_down,
            bytes_up=round_stats.bytes_up,
        )

    def broadcast_version(self, backend=None) -> Optional[str]:
        """The current global state's content hash — when worth computing.

        Only the version-addressed pool transport consumes stamped
        versions; other backends get ``None`` and skip the hash.
        ``backend`` defaults to the simulation's own, but protocol loops
        that resolved their own runner pass it explicitly.
        """
        if not hasattr(backend if backend is not None else self.backend,
                       "pop_ticket_stats"):
            return None
        return state_version(self.server.global_state)

    def _run_cohort(self, tasks) -> "tuple[list, TransportStats]":
        """Run one round's task batch: vectorized when opted in and
        eligible, per-client otherwise.  Returns per-client results in
        task order either way."""
        return self.run_cohort_tasks(
            tasks, shared_basis=self.server.global_state
        )

    def run_cohort_tasks(
        self, tasks, runner=None, shared_basis=None
    ) -> "tuple[list, TransportStats]":
        """Run one task batch through the vectorized fast path when opted
        in and eligible — stack-chunked across the runner's workers so
        vectorization and multi-worker backends compose — per-task
        otherwise.  The round's transport is accounted either way (lazy
        backends charge each *member's* dense states, pool backends the
        real pipe bytes), added to the simulation totals, and returned
        with the per-task results in task order.

        The four unlearning protocols route their inner rounds through
        this (their mixed batches group per task kind: eligible cohorts
        fuse, the rest run per-task in the same batch).
        """
        runner = self.backend if runner is None else runner
        tasks = list(tasks)
        if self.vectorize and tasks:
            plan = plan_cohort(
                tasks,
                workers=backend_worker_count(runner),
                shared_basis=shared_basis,
            )
            self._vectorize_stats.tally(plan)
            results = scatter_results(plan, runner.run_tasks(plan.units))
        else:
            results = runner.run_tasks(tasks)
        # Accounting runs against the *original* tasks: the simulated
        # federation still broadcast to every member and received every
        # member's return (lazy backends charge per-member dense states —
        # byte-identical to the per-client path; a pool reports the real
        # pipe bytes of the chunked batch it just ran).
        round_stats = account_model_traffic(runner, tasks, results)
        self.transport.add(round_stats)
        return results, round_stats

    def vectorize_report(self) -> dict:
        """How the opt-in vectorized path behaved across this simulation:
        rounds taken vectorized, rounds fallen back, the distinct
        fallback reasons with their counts, and the stack-chunk counts
        vectorized rounds were sharded into."""
        return self._vectorize_stats.report(self.vectorize)

    def transport_report(self) -> dict:
        """Cumulative model traffic of this simulation (both directions)."""
        return {"codec": self.codec, **self.transport.as_dict()}

    def run(
        self,
        num_rounds: int,
        record_client_metrics: bool = False,
        round_callback: Optional[Callable[[RoundRecord], None]] = None,
    ) -> SimulationHistory:
        """Run ``num_rounds`` rounds, recording global metrics each round."""
        if num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {num_rounds}")
        history = SimulationHistory()
        for round_index in range(num_rounds):
            record = self.run_round(round_index, record_client_metrics)
            history.rounds.append(record)
            if round_callback is not None:
                round_callback(record)
        if self._engine is not None:
            # Leave no orphaned work on a (possibly shared) pool between
            # runs; abandoned clients redispatch fresh next run.
            self._engine.abandon_inflight()
        return history

    def global_model(self) -> Module:
        """A fresh model loaded with the current global parameters."""
        model = self.model_factory()
        model.load_state_dict(self.server.global_state)
        return model
