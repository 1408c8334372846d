"""Federation-level unlearning protocols.

Each function drives a :class:`~repro.federated.simulation.FederatedSimulation`
whose clients may hold pending deletion requests through one complete
unlearning flow, and returns the new global model plus per-round metrics.
These are the flows compared in the paper's evaluation:

* :func:`federated_goldfish` — Algorithm 1's deletion branch (ours);
* :func:`federated_retrain` — B1, FedAvg retraining from scratch on D_r;
* :func:`federated_rapid_retrain` — B2, from-scratch retraining with the
  diagonal-FIM preconditioner;
* :func:`federated_incompetent_teacher` — B3, dual-teacher adjustment of
  the current global model (no reinitialisation).

The per-client work inside every round is packaged as pure tasks
(model state + data + RNG position in, new state + advanced RNG out) and
executed through the simulation's :class:`~repro.runtime.Backend`, so
client updates within a round compute concurrently under ``"pool"`` /
``"cluster"`` backends with bit-identical results. Pass ``backend=`` to
any protocol to override the simulation's backend for that flow only.

Two of the task kinds are *stackable* (``vectorize=True`` on the
simulation): :class:`_GoldfishClientTask` and :class:`_RapidClientTask`
each state, next to their fields, which tasks may share a stack
(``stack_key``), what else must hold (``stack_fallback_reason``) and the
one body that runs K of them (``run_stack``; ``run()`` is K = 1), so
:func:`repro.federated.vectorized.plan_cohort` fuses their rounds the
way it fuses stock :class:`~repro.runtime.task.TrainTask` rounds — B1's
and B3's normal clients.  B3's dual-teacher pass has no stacked body and
runs per client.

Goldfish's teacher is frozen, so it is evaluated once per client per
request: the round-0 tasks carry its state and return its logits on
D_r^c beside the student (``extra``, the way B2's FIM rides); later
rounds' tasks carry those logits and no teacher.  The logits live in a
local of :func:`federated_goldfish` and nowhere else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..federated.simulation import FederatedSimulation
from ..federated.vectorized import VectorizedCohort, arch_probe, stack_fallback_reason
from ..nn.module import Module
from ..nn.vmap import stack_modules
from ..runtime import BackendLike, get_backend
from ..runtime.task import RngState, StateDict, capture_rng, restore_rng
from ..training.config import TrainConfig
from ..training.trainer import follow_dataset_dtype, train
from .baselines.incompetent import IncompetentTeacherConfig, IncompetentTeacherUnlearner
from .baselines.rapid import DiagonalFIMSGD
from .goldfish import GoldfishConfig, GoldfishUnlearner


@dataclass
class UnlearnOutcome:
    """Result of one federated unlearning flow.

    The first five fields are filled by the protocol that ran; the last
    three normalise every method behind the registry
    (:mod:`repro.unlearning.registry`): ``method`` is the canonical
    registry name, ``chains`` counts the per-participant work units
    submitted to the execution backend, and ``provenance`` records how
    the outcome was produced (options, backend, history replayed, …).
    """

    global_model: Module
    rounds_run: int
    round_accuracies: List[float] = field(default_factory=list)
    local_epochs_total: int = 0
    wall_seconds: float = 0.0
    method: str = ""
    chains: int = 0
    provenance: Dict[str, Any] = field(default_factory=dict)
    # Federation rounds the method's retraining overlapped with instead of
    # barriering (non-zero only when the work ran through the non-blocking
    # UnlearningService / event-driven engine — see
    # repro.unlearning.service and repro.federated.engine).
    overlap_rounds: int = 0

    @property
    def final_accuracy(self) -> float:
        if not self.round_accuracies:
            raise ValueError("no rounds recorded")
        return self.round_accuracies[-1]


RoundCallback = Callable[[int, FederatedSimulation], None]
"""Called after each aggregation with (round_index, sim); lets experiments
capture per-round metrics (e.g. backdoor success rate at epoch checkpoints)."""


# ----------------------------------------------------------------------
# Task types (module-level so fork/pickle both work; each one is a pure
# function of its fields — see repro.runtime.task for the contract)
# ----------------------------------------------------------------------
@dataclass
class _ClientRoundResult:
    """One client's contribution to a round, produced inside a worker."""

    task_id: Any
    state: StateDict
    epochs_run: int
    rng_state: RngState
    # Protocol-specific state (B2's FIM, Goldfish's teacher logits).
    extra: Optional[dict] = None


@dataclass
class _GoldfishClientTask:
    """One client's Goldfish teacher/student pass (Algorithm 1).

    Carries either the teacher (round 0: ``teacher_state``) or the
    teacher's logits on ``retain_set`` (later rounds: ``teacher_logits``,
    ``teacher_state=None``); only the former returns the logits.
    """

    task_id: Any
    model_factory: Callable[[], Module]
    student_state: StateDict
    teacher_state: Optional[StateDict]
    retain_set: ArrayDataset
    forget_set: Optional[ArrayDataset]
    config: GoldfishConfig
    rng_state: RngState
    teacher_logits: Optional[np.ndarray] = None

    def run(self) -> _ClientRoundResult:
        return self.run_stack([self])[0]

    def stack_key(self) -> Any:
        """Members with and without forget sets stack separately (both
        groups fuse), around one shared teacher state (None after round
        0)."""
        has_forget = self.forget_set is not None and len(self.forget_set) > 0
        return (
            id(self.model_factory),
            id(self.config),
            has_forget,
            id(self.teacher_state),
        )

    @staticmethod
    def stack_fallback_reason(
        tasks: Sequence["_GoldfishClientTask"], arch_reason: Optional[str]
    ) -> Optional[str]:
        """Only structural mismatches and the per-member-epochs early
        stopper fall back."""
        if tasks[0].config.early_stop.enabled:
            return "goldfish early stopping decides epochs per member"
        forget_sets = [
            task.forget_set
            for task in tasks
            if task.forget_set is not None and len(task.forget_set) > 0
        ]
        return stack_fallback_reason(
            [task.config.train for task in tasks],
            [len(task.retain_set) for task in tasks],
            [task.retain_set for task in tasks] + forget_sets,
            arch_reason,
            arch_probe(tasks[0].model_factory).ragged,
            forget_sizes=[len(forget_set) for forget_set in forget_sets],
        )

    @staticmethod
    def run_stack(
        tasks: Sequence["_GoldfishClientTask"], basis: Optional[StateDict] = None
    ) -> List[_ClientRoundResult]:
        """One student natively, or K students as one stacked graph.

        Only the **students** stack: the frozen teacher's logits come
        from the same scalar
        :func:`~repro.unlearning.goldfish.teacher_logits_on` call a lone
        task makes (on the one ``teacher_state`` the stack shares), so
        every execution path indexes the same per-member array.  Nor does
        a stack re-implement Algorithm 1's local loop: it runs
        :meth:`GoldfishUnlearner.run_members`, the loop a lone student
        runs, over K members built by the same
        :meth:`GoldfishUnlearner.member` (own adaptive temperature, own
        |D_f|/|D_r| scaling and forget cap, own loader and forget cycler
        on the member's own generator — so per-member RNG streams are
        preserved).  All the stack supplies is the forward: every
        round-step is one stacked retain forward and one stacked forget
        forward (bit-exact per slice by the :mod:`repro.nn.vmap`
        contract), and
        :meth:`~repro.nn.vmap.StackedModel.forward_members` hands each
        member its slice of the logits (differentiable indexing,
        bit-identical values) for its own loss head against its own rows
        of ``teacher_logits``.  The loss heads are per member and the
        loop is shared, so heterogeneous loss hyper-parameters need no
        fallback gate and scalar/stacked parity is by shared code, not
        by a mirrored copy.
        """
        del basis  # every member carries its own student state
        first = tasks[0]
        students = [task.model_factory() for task in tasks]
        for student, task in zip(students, tasks):
            student.load_state_dict(task.student_state)
        teacher = None
        if first.teacher_state is not None:
            teacher = first.model_factory()
            teacher.load_state_dict(first.teacher_state)
        rngs = [restore_rng(task.rng_state) for task in tasks]
        unlearner = GoldfishUnlearner(first.config)
        if len(tasks) == 1:
            result = unlearner.unlearn(
                student=students[0],
                teacher=teacher,
                retain_set=first.retain_set,
                forget_set=first.forget_set,
                rng=rngs[0],
                teacher_logits=first.teacher_logits,
            )
            outcomes = [(result.epochs_run, result.teacher_logits)]
        else:
            for student, task in zip(students, tasks):
                follow_dataset_dtype(student, task.retain_set)
            members = [
                unlearner.member(
                    teacher, task.retain_set, task.forget_set, rng, task.teacher_logits
                )
                for task, rng in zip(tasks, rngs)
            ]
            student_stack = stack_modules(students)
            unlearner.run_members(
                members,
                student_stack,
                student_stack.forward_members,
                stack=len(students),
            )
            student_stack.sync_back()
            outcomes = [
                (len(member.epoch_losses), member.teacher_logits) for member in members
            ]
        return [
            _ClientRoundResult(
                task_id=task.task_id,
                state=student.state_dict(),
                epochs_run=epochs_run,
                rng_state=capture_rng(rng),
                extra=(
                    {"teacher_logits": teacher_logits}
                    if task.teacher_logits is None
                    else None
                ),
            )
            for task, student, rng, (epochs_run, teacher_logits) in zip(
                tasks, students, rngs, outcomes
            )
        ]


@dataclass
class _RapidClientTask:
    """One client's FIM-preconditioned pass (B2); carries the curvature.

    Stacked, it is a :class:`~repro.federated.vectorized.VectorizedCohort`
    round driven by :class:`DiagonalFIMSGD` over the stacked ``(K, ...)``
    parameters — its update is purely elementwise with a scalar step
    counter, so (like :class:`~repro.nn.optim.SGD`) it performs the
    per-slice update bitwise — with each member's running FIM estimate
    stacked in and extracted back out.
    """

    task_id: Any
    model_factory: Callable[[], Module]
    model_state: StateDict
    dataset: ArrayDataset
    config: TrainConfig
    rng_state: RngState
    lr: float
    rho: float
    damping: float
    fim_state: dict

    def run(self) -> _ClientRoundResult:
        return self.run_stack([self])[0]

    def stack_key(self) -> Any:
        """The optimizer hyper-parameters and the FIM step counter join
        the key: the scalar step counter must advance in lockstep."""
        return (
            id(self.model_factory),
            self.lr,
            self.rho,
            self.damping,
            int(self.fim_state["steps"]),
        )

    @staticmethod
    def stack_fallback_reason(
        tasks: Sequence["_RapidClientTask"], arch_reason: Optional[str]
    ) -> Optional[str]:
        """The per-parameter FIM None-pattern is the one extra gate."""
        reason = stack_fallback_reason(
            [task.config for task in tasks],
            [len(task.dataset) for task in tasks],
            [task.dataset for task in tasks],
            arch_reason,
            arch_probe(tasks[0].model_factory).ragged,
        )
        if reason is not None:
            return reason
        patterns = {
            tuple(entry is None for entry in task.fim_state["fim"])
            for task in tasks
        }
        if len(patterns) != 1:
            return "cohort FIM sparsity patterns differ"
        return None

    @staticmethod
    def run_stack(
        tasks: Sequence["_RapidClientTask"], basis: Optional[StateDict] = None
    ) -> List[_ClientRoundResult]:
        del basis  # every member carries its own model state
        first = tasks[0]
        models = [task.model_factory() for task in tasks]
        for model, task in zip(models, tasks):
            model.load_state_dict(task.model_state)
        rngs = [restore_rng(task.rng_state) for task in tasks]

        def make_optimizer(parameters):
            return DiagonalFIMSGD(
                parameters, lr=first.lr, rho=first.rho, damping=first.damping
            )

        if len(tasks) == 1:
            optimizer = make_optimizer(models[0].parameters())
            optimizer.load_fim_state(first.fim_state)
            histories = [
                train(models[0], first.dataset, first.config, rngs[0], optimizer=optimizer)
            ]
            fim_states = [optimizer.fim_state()]
        else:
            cohort = VectorizedCohort(models, [task.dataset for task in tasks], rngs)
            optimizer = make_optimizer(cohort.stacked.parameters())
            optimizer.load_stacked_fim_states([task.fim_state for task in tasks])
            histories = cohort.train(
                first.config, optimizer_factory=lambda parameters: optimizer
            )
            fim_states = [
                optimizer.member_fim_state(index) for index in range(len(tasks))
            ]
        return [
            _ClientRoundResult(
                task_id=task.task_id,
                state=model.state_dict(),
                epochs_run=len(history),
                rng_state=capture_rng(rng),
                extra={"fim": fim_state},
            )
            for task, model, history, rng, fim_state in zip(
                tasks, models, histories, rngs, fim_states
            )
        ]


@dataclass
class _IncompetentClientTask:
    """One unlearning client's dual-teacher adjustment pass (B3)."""

    task_id: Any
    model_factory: Callable[[], Module]
    student_state: StateDict
    competent_state: StateDict
    incompetent_state: StateDict
    retain_set: ArrayDataset
    forget_set: ArrayDataset
    config: IncompetentTeacherConfig
    rng_state: RngState

    def run(self) -> _ClientRoundResult:
        student = self.model_factory()
        student.load_state_dict(self.student_state)
        competent = self.model_factory()
        competent.load_state_dict(self.competent_state)
        incompetent = self.model_factory()
        incompetent.load_state_dict(self.incompetent_state)
        rng = restore_rng(self.rng_state)
        result = IncompetentTeacherUnlearner(self.config).unlearn(
            student=student,
            competent_teacher=competent,
            incompetent_teacher=incompetent,
            retain_set=self.retain_set,
            forget_set=self.forget_set,
            rng=rng,
        )
        return _ClientRoundResult(
            task_id=self.task_id,
            state=student.state_dict(),
            epochs_run=result.epochs_run,
            rng_state=capture_rng(rng),
        )


def _absorb_round(sim: FederatedSimulation, results: List[Any]) -> int:
    """Install worker results into the clients; return total epochs run.

    Accepts both protocol-specific :class:`_ClientRoundResult` objects and
    stock :class:`~repro.runtime.TrainResult` objects (from plain retrain
    tasks emitted via :meth:`Client.make_train_task`), which report their
    epoch count via their history.
    """
    epochs = 0
    by_id = {client.client_id: client for client in sim.clients}
    for result in results:
        client = by_id[result.task_id]
        if isinstance(result, _ClientRoundResult):
            client.model.load_state_dict(result.state)
            client.rng.bit_generator.state = result.rng_state
            epochs += result.epochs_run
        else:
            epochs += len(client.absorb_train_result(result))
    return epochs


def _run_rounds(
    sim: FederatedSimulation,
    num_rounds: int,
    backend: BackendLike,
    round_callback: Optional[RoundCallback],
    make_tasks: Callable[[Any], List[Any]],
    on_results: Optional[Callable[[List[Any]], None]] = None,
    reinitialize: bool = True,
) -> UnlearnOutcome:
    """The round skeleton the four protocols share.

    Validate, start the clock and resolve the backend (the protocol-level
    override, else whatever the simulation uses) before the first side
    effect; reset the global model to ω^0 unless the protocol adjusts the
    current one (B3); then per round: broadcast → ``make_tasks(runner)``
    → run the cohort → ``on_results`` (protocol state riding the results:
    Goldfish's teacher logits, B2's FIM) → absorb → aggregate → evaluate
    → ``round_callback``; finally every client's deletion is finalized.
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
        sim.server.broadcast(sim.clients)
        results, _ = sim.run_cohort_tasks(make_tasks(runner), runner=runner)
        if on_results is not None:
            on_results(results)
        local_epochs += _absorb_round(sim, results)
        sim.server.aggregate([client.upload() for client in sim.clients])
        accuracies.append(sim.server.evaluate_global()[1])
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

    def make_tasks(runner):
        return [
            _GoldfishClientTask(
                task_id=client.client_id,
                model_factory=sim.model_factory,
                student_state=client.model.state_dict(),
                teacher_state=None if teacher_logits else teacher_state,
                retain_set=client.retain_set,
                forget_set=client.forget_set,
                config=config,
                rng_state=capture_rng(client.rng),
                teacher_logits=teacher_logits.get(client.client_id),
            )
            for client in sim.clients
        ]

    def keep_teacher_logits(results):
        if not teacher_logits:
            teacher_logits.update(
                (result.task_id, result.extra["teacher_logits"]) for result in results
            )

    return _run_rounds(
        sim, num_rounds, backend, round_callback, make_tasks, keep_teacher_logits
    )


def federated_retrain(
    sim: FederatedSimulation,
    train_config: TrainConfig,
    num_rounds: int,
    round_callback: Optional[RoundCallback] = None,
    backend: BackendLike = None,
) -> UnlearnOutcome:
    """B1: reinitialise and run plain FedAvg training on the retained data."""
    def make_tasks(runner):
        # Client.active_dataset is the retain set while a deletion is
        # pending, so the stock client task trains on exactly D_r^c —
        # under the simulation's update codec, so retraining traffic is
        # compressed (and accounted) exactly like normal rounds.
        model_version = sim.broadcast_version(runner)
        return [
            client.make_train_task(
                train_config,
                sim.model_factory,
                codec=sim.codec,
                model_version=model_version,
            )
            for client in sim.clients
        ]

    return _run_rounds(sim, num_rounds, backend, round_callback, make_tasks)


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
    lr = train_config.learning_rate * lr_scale
    # Sized from the clients' models before the reinitialised global model
    # is broadcast to them at the top of round 0 — a parameter *count*,
    # which no broadcast changes, so the effects keep their order:
    # reinitialise, broadcast, train.
    fim_states: Dict[Any, dict] = {
        client.client_id: DiagonalFIMSGD.empty_fim_state(
            len(client.model.parameters())
        )
        for client in sim.clients
    }

    def make_tasks(runner):
        return [
            _RapidClientTask(
                task_id=client.client_id,
                model_factory=sim.model_factory,
                model_state=client.model.state_dict(),
                dataset=client.retain_set,
                config=train_config,
                rng_state=capture_rng(client.rng),
                lr=lr,
                rho=rho,
                damping=damping,
                fim_state=fim_states[client.client_id],
            )
            for client in sim.clients
        ]

    def keep_fim_states(results):
        for result in results:
            fim_states[result.task_id] = result.extra["fim"]

    return _run_rounds(
        sim, num_rounds, backend, round_callback, make_tasks, keep_fim_states
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

    def make_tasks(runner):
        model_version = sim.broadcast_version(runner)
        return [
            _IncompetentClientTask(
                task_id=client.client_id,
                model_factory=sim.model_factory,
                student_state=client.model.state_dict(),
                competent_state=competent_state,
                incompetent_state=incompetent_state,
                retain_set=client.retain_set,
                forget_set=client.forget_set,
                config=config,
                rng_state=capture_rng(client.rng),
            )
            if client.has_pending_deletion
            # Normal clients run the stock task, so they ride the
            # simulation's update codec like any federation round.
            else client.make_train_task(
                normal_client_config,
                sim.model_factory,
                codec=sim.codec,
                model_version=model_version,
            )
            for client in sim.clients
        ]

    return _run_rounds(
        sim, num_rounds, backend, round_callback, make_tasks, reinitialize=False
    )
