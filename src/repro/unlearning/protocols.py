"""Federation-level unlearning protocols: one flow per unlearning method.

Each function drives a :class:`~repro.federated.simulation.FederatedSimulation`
through one complete unlearning flow and returns the new global model plus
per-round metrics as an :class:`UnlearnOutcome`.  These are the methods
compared in the paper's evaluation, named in :data:`METHODS`:

* ``ours`` — :func:`federated_goldfish`, Algorithm 1's deletion branch;
* ``b1`` — :func:`federated_retrain`, FedAvg retraining from scratch on D_r;
* ``b2`` — :func:`federated_rapid_retrain`, from-scratch retraining with
  the diagonal-FIM preconditioner;
* ``b3`` — :func:`federated_incompetent_teacher`, dual-teacher adjustment
  of the current global model (no reinitialisation);
* ``federaser`` — :func:`federated_federaser`, calibrated replay of the
  server's round history without the erased client;
* ``fedrecovery`` — :func:`federated_fedrecovery`, server-side subtraction
  of the erased client's residual from the round history.

The first four forget the samples the clients hold pending deletion
requests for.  The last two, :data:`CLIENT_LEVEL_METHODS`, erase one
whole client and need the server's
:class:`~repro.federated.history.RoundHistoryStore`.
:func:`repro.experiments.runner.run_method` runs any of them by name on a
pretrained scenario.

Every sample-level protocol runs the simulation's one round body,
:meth:`~repro.federated.simulation.FederatedSimulation.play_round`, with
its own client task: B1's clients and B3's normal clients run the stock
:class:`~repro.runtime.task.TrainTask`, Goldfish's, B2's and B3's
unlearning clients a subclass of it that adds the protocol's state.
Every task starts from the round's stamped broadcast, reads the client's
dataset plus an index selection and returns a
:class:`~repro.runtime.task.TrainResult` under the simulation's codec,
so client updates compute concurrently under ``"pool"`` / ``"cluster"``
backends with bit-identical results.  The teachers, the teacher's logits
and the FIM ride the task and are charged in the round's traffic, as is
what rides back in ``TrainResult.extra``.  Pass ``backend=`` to any
of them to override the simulation's backend for that flow only.

On a ``vectorize=True`` simulation, B1's clients and B3's normal clients
run stock :class:`~repro.runtime.task.TrainTask` rounds, which
:func:`repro.federated.vectorized.plan_cohort` stacks.  The Goldfish, B2
and B3 client tasks run one client each, as Algorithm 1 does, and the
planner records that it has no vectorized implementation for them.

Goldfish's teacher is frozen, so it is evaluated once per client per
request: the round-0 tasks carry its state and return its logits on
D_r^c beside the student (``extra``, the way B2's FIM rides); later
rounds' tasks carry those logits and no teacher.  The logits live in a
local of :func:`federated_goldfish` and nowhere else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..data.dataset import ArrayDataset
from ..federated.history import RoundHistoryStore
from ..federated.simulation import FederatedSimulation
from ..nn.module import Module
from ..runtime import BackendLike, get_backend
from ..runtime.task import StateDict, TrainResult, TrainTask
from ..training.config import TrainConfig
from ..training.evaluation import evaluate
from ..training.trainer import train
from .baselines.federaser import FedEraser, FedEraserConfig
from .baselines.fedrecovery import FedRecovery
from .baselines.incompetent import IncompetentTeacherConfig, IncompetentTeacherUnlearner
from .baselines.rapid import DiagonalFIMSGD, check_rapid_options
from .goldfish import GoldfishConfig, GoldfishUnlearner


METHODS = ("ours", "b1", "b2", "b3", "federaser", "fedrecovery")
"""Every unlearning method, by the name the experiments use."""

CLIENT_LEVEL_METHODS = ("federaser", "fedrecovery")
"""The methods that erase a whole client from the server's round history."""


@dataclass
class UnlearnOutcome:
    """Result of one federated unlearning flow, filled by the flow that ran.

    ``chains`` counts the per-participant work units the flow submitted to
    the execution backend (one client task per client per round); a
    history-only flow that trains nothing counts none.
    """

    global_model: Module
    rounds_run: int
    round_accuracies: List[float] = field(default_factory=list)
    local_epochs_total: int = 0
    wall_seconds: float = 0.0
    chains: int = 0

    @property
    def final_accuracy(self) -> float:
        if not self.round_accuracies:
            raise ValueError("no rounds recorded")
        return self.round_accuracies[-1]


RoundCallback = Callable[[int, FederatedSimulation], None]
"""Called after each aggregation with (round_index, sim); lets experiments
capture per-round metrics (e.g. backdoor success rate at epoch checkpoints)."""


# ----------------------------------------------------------------------
# Client tasks (module-level so fork/pickle both work; each one is a pure
# function of its fields — see repro.runtime.task for the contract)
# ----------------------------------------------------------------------
@dataclass
class _ClientTask(TrainTask):
    """One client's unlearning pass in the stock client task's shape.

    The :class:`~repro.runtime.task.TrainTask` fields keep their meaning:
    ``model_state`` is the broadcast the client starts from, stamped with
    the round's ``model_version``; ``dataset`` plus ``indices`` select its
    retained data (``forget_indices`` its pending deletion); ``codec`` is
    the simulation's update codec.  Only ``config`` is the protocol's
    own.  A subclass adds its protocol state and replaces
    :meth:`~repro.runtime.task.TrainTask.local_pass`, so its result is a
    :class:`~repro.runtime.task.TrainResult` encoded like any client
    return, with the protocol state it brings back in ``extra``.  Each
    task runs one client, as Algorithm 1 does (``stack_key`` is
    ``None``, so the vectorized planner records that).
    """

    forget_indices: Optional[np.ndarray] = None
    stack_key = None

    def forget_set(self) -> Optional[ArrayDataset]:
        if self.forget_indices is None:
            return None
        return self.dataset.subset(self.forget_indices)


@dataclass
class _GoldfishClientTask(_ClientTask):
    """One client's Goldfish teacher/student pass (Algorithm 1).

    Carries either the teacher (round 0: ``teacher_state``) or the
    teacher's logits on the retained data (later rounds:
    ``teacher_logits``, ``teacher_state=None``); only the former returns
    the logits.
    """

    teacher_state: Optional[StateDict] = None
    teacher_logits: Optional[np.ndarray] = None

    def local_pass(self, student, retain_set, rng):
        teacher = None
        if self.teacher_state is not None:
            teacher = self.model_factory()
            teacher.load_state_dict(self.teacher_state)
        result = GoldfishUnlearner(self.config).unlearn(
            student=student,
            teacher=teacher,
            retain_set=retain_set,
            forget_set=self.forget_set(),
            rng=rng,
            teacher_logits=self.teacher_logits,
        )
        if self.teacher_logits is None:
            return result.history, {"teacher_logits": result.teacher_logits}
        return result.history, None


@dataclass
class _RapidClientTask(_ClientTask):
    """One client's FIM-preconditioned pass (B2); carries the curvature
    (``None``: none accumulated yet) and brings the updated estimate
    back.  ``config.learning_rate`` is the already-scaled step size."""

    rho: float = 0.95
    damping: float = 1e-3
    fim_state: Optional[dict] = None

    def local_pass(self, model, retain_set, rng):
        optimizer = DiagonalFIMSGD(
            model.parameters(), lr=self.config.learning_rate, rho=self.rho,
            damping=self.damping,
        )
        if self.fim_state is not None:
            optimizer.load_fim_state(self.fim_state)
        history = train(model, retain_set, self.config, rng, optimizer=optimizer)
        return history, {"fim": optimizer.fim_state()}


@dataclass
class _IncompetentClientTask(_ClientTask):
    """One unlearning client's dual-teacher adjustment pass (B3)."""

    competent_state: Optional[StateDict] = None
    incompetent_state: Optional[StateDict] = None

    def local_pass(self, student, retain_set, rng):
        competent = self.model_factory()
        competent.load_state_dict(self.competent_state)
        incompetent = self.model_factory()
        incompetent.load_state_dict(self.incompetent_state)
        result = IncompetentTeacherUnlearner(self.config).unlearn(
            student=student,
            competent_teacher=competent,
            incompetent_teacher=incompetent,
            retain_set=retain_set,
            forget_set=self.forget_set(),
            rng=rng,
        )
        return result.history, None


def _client_task(kind, sim, client, model_version, config, **protocol_state):
    """``client``'s task of ``kind``: the stock task's start model, data
    selection, RNG position, codec and version, plus the protocol's own
    state."""
    stock = client.make_train_task(
        config, sim.model_factory, codec=sim.codec, model_version=model_version
    )
    return kind(**vars(stock), **protocol_state)


def _deletion_rounds(
    sim: FederatedSimulation,
    num_rounds: int,
    backend: BackendLike,
    round_callback: Optional[RoundCallback],
    make_task: Callable[[Any, Optional[str]], TrainTask],
    keep: Optional[Callable[[List[TrainResult]], None]] = None,
    reinitialize: bool = True,
) -> UnlearnOutcome:
    """One deletion flow over the simulation's round body.

    Validate, start the clock and resolve the backend (the protocol-level
    override, else whatever the simulation uses) before the first side
    effect; reset the global model to ω^0 unless the protocol adjusts the
    current one (B3); then ``num_rounds`` rounds of
    :meth:`~repro.federated.simulation.FederatedSimulation.play_round`
    with ``make_task``, each followed by ``keep`` (protocol state riding
    the results: Goldfish's teacher logits, B2's FIM) and
    ``round_callback``; finally every client's deletion is finalized.
    """
    if num_rounds <= 0:
        raise ValueError(f"num_rounds must be positive, got {num_rounds}")
    start = time.perf_counter()
    runner = sim.backend if backend is None else get_backend(backend)
    if reinitialize:
        sim.server.reinitialize()
    accuracies: List[float] = []
    local_epochs = 0
    for round_index in range(num_rounds):
        record, results = sim.play_round(round_index, make_task, runner)
        if keep is not None:
            keep(results)
        local_epochs += sum(len(result.history) for result in results)
        accuracies.append(record.global_accuracy)
        if round_callback is not None:
            round_callback(round_index, sim)
    for client in sim.clients:
        client.finalize_deletion()
    return UnlearnOutcome(
        global_model=sim.global_model(),
        rounds_run=num_rounds,
        round_accuracies=accuracies,
        local_epochs_total=local_epochs,
        wall_seconds=time.perf_counter() - start,
        chains=num_rounds * len(sim.clients),
    )


def federated_goldfish(
    sim: FederatedSimulation,
    config: GoldfishConfig,
    num_rounds: int,
    round_callback: Optional[RoundCallback] = None,
    backend: BackendLike = None,
) -> UnlearnOutcome:
    """Run the Goldfish deletion branch of Algorithm 1.

    The pre-deletion global model becomes the teacher; the global model is
    reinitialised to ω^0 and every client (unlearning or not) retrains its
    student under the composite loss, distilling from the teacher. The
    server aggregates after every round.
    """
    teacher_state = sim.server.global_state  # ω^{t-1}, knows D_f and D_r
    # Filled by the round-0 tasks, dropped when this call returns.
    teacher_logits: Dict[Any, np.ndarray] = {}

    def make_task(client, model_version):
        return _client_task(
            _GoldfishClientTask, sim, client, model_version, config,
            forget_indices=client.forget_indices,
            teacher_state=None if teacher_logits else teacher_state,
            teacher_logits=teacher_logits.get(client.client_id),
        )

    def keep_teacher_logits(results):
        if not teacher_logits:
            teacher_logits.update(
                (result.task_id, result.extra["teacher_logits"]) for result in results
            )

    return _deletion_rounds(
        sim, num_rounds, backend, round_callback, make_task, keep_teacher_logits
    )


def federated_retrain(
    sim: FederatedSimulation,
    train_config: TrainConfig,
    num_rounds: int,
    round_callback: Optional[RoundCallback] = None,
    backend: BackendLike = None,
) -> UnlearnOutcome:
    """B1: reinitialise and run plain FedAvg training on the retained data."""
    # Client.retain_indices selects D_r^c while a deletion is pending, so
    # the stock client task trains on exactly the retained data.
    def make_task(client, model_version):
        return _client_task(TrainTask, sim, client, model_version, train_config)

    return _deletion_rounds(sim, num_rounds, backend, round_callback, make_task)


def federated_rapid_retrain(
    sim: FederatedSimulation,
    train_config: TrainConfig,
    num_rounds: int,
    lr_scale: float = 0.1,
    rho: float = 0.95,
    damping: float = 1e-3,
    round_callback: Optional[RoundCallback] = None,
    backend: BackendLike = None,
) -> UnlearnOutcome:
    """B2: from-scratch retraining with diagonal-FIM preconditioned SGD.

    The per-client FIM estimate persists across rounds (that is the whole
    point of the method: curvature accumulated once keeps accelerating).
    Each round's task carries the client's FIM snapshot out to the worker
    and brings the updated estimate back.
    """
    # Checked here, not first inside a task: by then the global model
    # has been reset to ω^0.
    check_rapid_options(rho, damping, lr_scale)
    config = train_config.with_overrides(
        learning_rate=train_config.learning_rate * lr_scale
    )
    fim_states: Dict[Any, dict] = {}  # empty until the round-0 tasks return

    def make_task(client, model_version):
        return _client_task(
            _RapidClientTask, sim, client, model_version, config,
            rho=rho, damping=damping, fim_state=fim_states.get(client.client_id),
        )

    def keep_fim_states(results):
        for result in results:
            fim_states[result.task_id] = result.extra["fim"]

    return _deletion_rounds(
        sim, num_rounds, backend, round_callback, make_task, keep_fim_states
    )


def federated_incompetent_teacher(
    sim: FederatedSimulation,
    config: IncompetentTeacherConfig,
    num_rounds: int,
    normal_client_config: Optional[TrainConfig] = None,
    round_callback: Optional[RoundCallback] = None,
    backend: BackendLike = None,
) -> UnlearnOutcome:
    """B3: the unlearning clients adjust the *current* global model with the
    incompetent-teacher objective; normal clients train as usual."""
    competent_state = sim.server.global_state
    incompetent_state = sim.model_factory().state_dict()  # random on purpose
    normal_client_config = normal_client_config or config.train

    def make_task(client, model_version):
        if not client.has_pending_deletion:
            return _client_task(
                TrainTask, sim, client, model_version, normal_client_config
            )
        return _client_task(
            _IncompetentClientTask, sim, client, model_version, config,
            forget_indices=client.forget_indices,
            competent_state=competent_state,
            incompetent_state=incompetent_state,
        )

    return _deletion_rounds(
        sim, num_rounds, backend, round_callback, make_task, reinitialize=False
    )


def _history_outcome(sim, state, rounds_run, local_epochs, wall, chains):
    """An update-adjustment flow's outcome: the model ``state`` loads into,
    scored once on the test set so ``final_accuracy`` reads as it does
    for the round-based flows."""
    model = sim.model_factory()
    model.load_state_dict(state)
    _, accuracy = evaluate(model, sim.server.test_set)
    return UnlearnOutcome(
        global_model=model,
        rounds_run=rounds_run,
        round_accuracies=[accuracy],
        local_epochs_total=local_epochs,
        wall_seconds=wall,
        chains=chains,
    )


def federated_federaser(
    sim: FederatedSimulation,
    train_config: TrainConfig,
    history: Optional[RoundHistoryStore],
    forget_client_id: int,
    rng: Optional[np.random.Generator],
) -> UnlearnOutcome:
    """FedEraser: erase ``forget_client_id`` by calibrated replay of the
    stored round ``history`` from ω^0.

    The remaining clients run one calibration epoch per replayed round at
    ``train_config``'s learning rate and batch size, drawing from ``rng``
    (``None``: seed 0).
    """
    if history is None:
        raise ValueError("federaser requires the server round history")
    if rng is None:
        rng = np.random.default_rng(0)
    config = FedEraserConfig(
        calibration_epochs=1,
        learning_rate=train_config.learning_rate,
        batch_size=train_config.batch_size,
    )
    start = time.perf_counter()
    state, report = FedEraser(sim.model_factory, config).unlearn(
        history, sim.server.initial_state,
        [client.dataset for client in sim.clients],
        forget_client_id=forget_client_id, rng=rng,
    )
    wall = time.perf_counter() - start
    return _history_outcome(
        sim, state, report.rounds_replayed, report.calibration_epochs_run, wall,
        chains=report.rounds_replayed * (len(sim.clients) - 1),
    )


def federated_fedrecovery(
    sim: FederatedSimulation,
    history: Optional[RoundHistoryStore],
    forget_client_id: int,
) -> UnlearnOutcome:
    """FedRecovery: subtract ``forget_client_id``'s gradient residual,
    read from the stored round ``history``, from the current global
    model.  Released noiseless so accuracy compares across methods; a
    server-side computation, so it runs no round and no client task."""
    if history is None:
        raise ValueError("fedrecovery requires the server round history")
    start = time.perf_counter()
    state, _ = FedRecovery().unlearn(
        history, sim.server.global_state, forget_client_id=forget_client_id
    )
    wall = time.perf_counter() - start
    return _history_outcome(sim, state, 0, 0, wall, chains=0)
