"""Vectorized inner loops for the unlearning protocols.

:mod:`repro.federated.vectorized` fuses stock federation rounds; this
module extends the same machinery to the protocol-specific round tasks —
Goldfish student passes, B2's FIM-preconditioned retraining — and to
SISA's per-shard chains, so ``vectorize=True`` accelerates every flow the
paper evaluates, not just plain FedAvg rounds.

The fused Goldfish pass stacks **students only**: the frozen teacher's
logits come from the same scalar
:func:`~repro.unlearning.goldfish.teacher_logits_on` call the per-client
task makes, so every execution path indexes the same per-member array.

Parity strategy
---------------
The fused Goldfish pass does not re-implement Algorithm 1's local loop:
it runs :meth:`~repro.unlearning.goldfish.GoldfishUnlearner.run_members`,
the loop the per-client path runs, over K members built by the same
:meth:`~repro.unlearning.goldfish.GoldfishUnlearner.member` (own
adaptive temperature, own |D_f|/|D_r| scaling and forget cap, own
loader and forget cycler on the member's own generator).  The only thing
this module supplies is the forward: the expensive part of a step — the
network forward/backward — runs **stacked** (K members, one batched
graph, bit-exact per slice by the :mod:`repro.nn.vmap` contract), and
:meth:`~repro.nn.vmap.StackedModel.forward_members` hands each member its
slice of the stacked logits (differentiable indexing, bit-identical
values).  The loss heads are per member and the loop is shared, so
heterogeneous loss hyper-parameters need no fallback gate and
scalar/stacked parity is by shared code, not by a mirrored copy.

SISA chains vectorize in **stage lockstep**: per slice index, every
affected shard's stage becomes one member of a fused
:class:`~repro.federated.vectorized.VectorizedTrainTask` carrying
per-member initial states (``member_states``), mirroring the per-chain
path exactly because a chain stage is a fresh-optimizer training run
whose model state round-trips losslessly through state dicts.  The one
genuine obstacle is dropout: a per-client chain keeps *one* model (and
its dropout stream) across stages, while stage-wise reconstruction
would reset the stream — so dropout architectures fall back, with the
reason recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..federated.vectorized import (
    TrainTaskFuser,
    VectorizedCohort,
    backend_worker_count,
    cohort_fallback_reason,
    ragged_probe,
    register_fuser,
    split_stack,
    stack_fallback_reason,
)
from ..nn.layers import Dropout
from ..nn.module import Module
from ..nn.vmap import stack_modules
from ..runtime.task import (
    ChainResult,
    ChainTask,
    RngState,
    StateDict,
    TrainTask,
    capture_rng,
    restore_rng,
)
from ..training.config import TrainConfig
from ..training.trainer import follow_dataset_dtype
from .baselines.rapid import DiagonalFIMSGD
from .goldfish import GoldfishConfig, GoldfishUnlearner


def _stack_fim_states(
    optimizer: DiagonalFIMSGD, member_states: Sequence[dict]
) -> None:
    """Install K members' FIM snapshots as one stacked snapshot.

    Mirrors :meth:`DiagonalFIMSGD.load_fim_state` per slice — including
    its float64 forcing — so slice ``k`` of every stacked FIM array is
    bit-identical to member ``k``'s standalone load.  Callers gate on a
    uniform ``steps`` counter and a uniform per-parameter None-pattern.
    """
    num_parameters = len(optimizer.parameters)
    for state in member_states:
        if len(state["fim"]) != num_parameters:
            raise ValueError(
                f"FIM state holds {len(state['fim'])} entries for "
                f"{num_parameters} parameters"
            )
    stacked: List[Optional[np.ndarray]] = []
    for index in range(num_parameters):
        entries = [state["fim"][index] for state in member_states]
        if all(entry is None for entry in entries):
            stacked.append(None)
        else:
            stacked.append(
                np.stack([np.array(entry, dtype=np.float64) for entry in entries])
            )
    optimizer._fim = stacked
    optimizer._steps = int(member_states[0]["steps"])


def _member_fim_state(optimizer: DiagonalFIMSGD, member: int) -> dict:
    """Member ``member``'s FIM snapshot out of the stacked optimizer —
    the exact dict its standalone :meth:`DiagonalFIMSGD.fim_state` would
    return."""
    return {
        "fim": [None if f is None else f[member].copy() for f in optimizer._fim],
        "steps": optimizer._steps,
    }


# ----------------------------------------------------------------------
# Goldfish: fused student passes
# ----------------------------------------------------------------------
@dataclass
class VectorizedGoldfishTask:
    """K clients' Goldfish passes (Algorithm 1) as one stacked work unit.

    Only the students stack: every round-step is one stacked retain
    forward and one stacked forget forward inside the per-client loop
    (:meth:`GoldfishUnlearner.run_members`), each member's composite loss
    computed on its slice by its own head against its rows of
    ``teacher_logits`` (filled in round 0 from the one shared
    ``teacher_state``, carried afterwards — as in the per-client task).
    Per-member RNG streams are preserved because every member is set up
    and stepped by the per-client code on its own generator.
    """

    task_id: Any
    task_ids: List[Any]
    model_factory: Callable[[], Module]
    student_states: List[StateDict]
    teacher_state: Optional[StateDict]
    retain_sets: List[ArrayDataset]
    forget_sets: List[Optional[ArrayDataset]]
    config: GoldfishConfig
    rng_states: List[RngState]
    teacher_logits: List[Optional[np.ndarray]]

    def run(self) -> List[Any]:
        from .protocols import _ClientRoundResult

        students = [self.model_factory() for _ in self.task_ids]
        for student, state, retain_set in zip(students, self.student_states, self.retain_sets):
            student.load_state_dict(state)
            follow_dataset_dtype(student, retain_set)
        teacher = None
        if self.teacher_state is not None:
            teacher = self.model_factory()
            teacher.load_state_dict(self.teacher_state)
        rngs = [restore_rng(state) for state in self.rng_states]
        unlearner = GoldfishUnlearner(self.config)
        members = [
            unlearner.member(teacher, retain_set, forget_set, rng, carried)
            for retain_set, forget_set, rng, carried in zip(
                self.retain_sets, self.forget_sets, rngs, self.teacher_logits
            )
        ]
        student_stack = stack_modules(students)
        unlearner.run_members(
            members,
            student_stack,
            student_stack.forward_members,
            stack=len(students),
        )
        student_stack.sync_back()
        return [
            _ClientRoundResult(
                task_id=task_id,
                state=student.state_dict(),
                epochs_run=len(member.epoch_losses),
                rng_state=capture_rng(rng),
                extra=(
                    {"teacher_logits": member.teacher_logits}
                    if carried is None
                    else None
                ),
            )
            for task_id, student, member, rng, carried in zip(
                self.task_ids, students, members, rngs, self.teacher_logits
            )
        ]

    def split(self, n_chunks: int) -> List["VectorizedGoldfishTask"]:
        """Contiguous stack chunks — same contract as
        :meth:`~repro.federated.vectorized.VectorizedTrainTask.split`."""
        fields = ("student_states", "retain_sets", "forget_sets", "rng_states", "teacher_logits")
        return split_stack(self, n_chunks, fields)


class GoldfishTaskFuser:
    """Fuses :class:`~repro.unlearning.protocols._GoldfishClientTask`
    cohorts.  Members with and without forget sets group separately (both
    groups fuse); only structural mismatches and the per-member-epochs
    early stopper fall back."""

    kind = "goldfish"

    def matches(self, task: Any) -> bool:
        from .protocols import _GoldfishClientTask

        return type(task) is _GoldfishClientTask

    def model_factory(self, task: Any) -> Callable[[], Module]:
        return task.model_factory

    def group_key(self, task: Any) -> Any:
        has_forget = task.forget_set is not None and len(task.forget_set) > 0
        # One shared teacher state per group (None after round 0).
        teacher = id(task.teacher_state)
        return (id(task.model_factory), id(task.config), has_forget, teacher)

    def fallback_reason(
        self, tasks: Sequence[Any], arch_reason: Optional[str]
    ) -> Optional[str]:
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
            ragged_probe(tasks[0].model_factory),
            forget_sizes=[len(forget_set) for forget_set in forget_sets],
        )

    def fuse(
        self, tasks: Sequence[Any], shared_basis: Optional[StateDict] = None
    ) -> VectorizedGoldfishTask:
        del shared_basis  # per-member states are carried explicitly
        return VectorizedGoldfishTask(
            task_id=tuple(task.task_id for task in tasks),
            task_ids=[task.task_id for task in tasks],
            model_factory=tasks[0].model_factory,
            student_states=[task.student_state for task in tasks],
            teacher_state=tasks[0].teacher_state,
            retain_sets=[task.retain_set for task in tasks],
            forget_sets=[task.forget_set for task in tasks],
            config=tasks[0].config,
            rng_states=[task.rng_state for task in tasks],
            teacher_logits=[task.teacher_logits for task in tasks],
        )


# ----------------------------------------------------------------------
# B2 (rapid retraining): fused FIM-preconditioned rounds
# ----------------------------------------------------------------------
@dataclass
class VectorizedRapidTask:
    """K clients' B2 passes as one stacked work unit: a
    :class:`~repro.federated.vectorized.VectorizedCohort` round driven by
    :class:`~repro.unlearning.baselines.rapid.DiagonalFIMSGD` over the
    stacked ``(K, ...)`` parameters — its update is purely elementwise
    with a scalar step counter, so (like :class:`~repro.nn.optim.SGD`) it
    performs the per-slice update bitwise — with each member's running
    FIM estimate stacked in and extracted back out."""

    task_id: Any
    task_ids: List[Any]
    model_factory: Callable[[], Module]
    model_states: List[StateDict]
    datasets: List[ArrayDataset]
    config: TrainConfig
    rng_states: List[RngState]
    lr: float
    rho: float
    damping: float
    fim_states: List[dict]

    def run(self) -> List[Any]:
        from .protocols import _ClientRoundResult

        k = len(self.task_ids)
        models = [self.model_factory() for _ in range(k)]
        for model, state in zip(models, self.model_states):
            model.load_state_dict(state)
        rngs = [restore_rng(state) for state in self.rng_states]
        cohort = VectorizedCohort(models, self.datasets, rngs)
        optimizers: List[DiagonalFIMSGD] = []

        def optimizer_factory(parameters):
            optimizer = DiagonalFIMSGD(
                parameters, lr=self.lr, rho=self.rho, damping=self.damping
            )
            _stack_fim_states(optimizer, self.fim_states)
            optimizers.append(optimizer)
            return optimizer

        histories = cohort.train(self.config, optimizer_factory=optimizer_factory)
        optimizer = optimizers[0]
        return [
            _ClientRoundResult(
                task_id=self.task_ids[index],
                state=models[index].state_dict(),
                epochs_run=len(histories[index]),
                rng_state=capture_rng(rngs[index]),
                extra={"fim": _member_fim_state(optimizer, index)},
            )
            for index in range(k)
        ]

    def split(self, n_chunks: int) -> List["VectorizedRapidTask"]:
        """Contiguous stack chunks — same contract as
        :meth:`~repro.federated.vectorized.VectorizedTrainTask.split`."""
        fields = ("model_states", "datasets", "rng_states", "fim_states")
        return split_stack(self, n_chunks, fields)


class RapidTaskFuser:
    """Fuses :class:`~repro.unlearning.protocols._RapidClientTask`
    cohorts.  The optimizer hyper-parameters and FIM step counter join
    the group key (the scalar step counter must advance in lockstep);
    the per-parameter FIM None-pattern is the one extra gate."""

    kind = "rapid"

    def matches(self, task: Any) -> bool:
        from .protocols import _RapidClientTask

        return type(task) is _RapidClientTask

    def model_factory(self, task: Any) -> Callable[[], Module]:
        return task.model_factory

    def group_key(self, task: Any) -> Any:
        return (
            id(task.model_factory),
            task.lr,
            task.rho,
            task.damping,
            int(task.fim_state["steps"]),
        )

    def fallback_reason(
        self, tasks: Sequence[Any], arch_reason: Optional[str]
    ) -> Optional[str]:
        reason = stack_fallback_reason(
            [task.config for task in tasks],
            [len(task.dataset) for task in tasks],
            [task.dataset for task in tasks],
            arch_reason,
            ragged_probe(tasks[0].model_factory),
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

    def fuse(
        self, tasks: Sequence[Any], shared_basis: Optional[StateDict] = None
    ) -> VectorizedRapidTask:
        del shared_basis  # per-member states are carried explicitly
        first = tasks[0]
        return VectorizedRapidTask(
            task_id=tuple(task.task_id for task in tasks),
            task_ids=[task.task_id for task in tasks],
            model_factory=first.model_factory,
            model_states=[task.model_state for task in tasks],
            datasets=[task.dataset for task in tasks],
            config=first.config,
            rng_states=[task.rng_state for task in tasks],
            lr=first.lr,
            rho=first.rho,
            damping=first.damping,
            fim_states=[task.fim_state for task in tasks],
        )


# ----------------------------------------------------------------------
# SISA: stage-lockstep chain vectorization
# ----------------------------------------------------------------------
def sisa_chain_fallback_reason(
    tasks: Sequence[ChainTask], arch_reason: Optional[str]
) -> Optional[str]:
    """Why a batch of SISA retrain chains cannot vectorize (``None`` =
    eligible).  ``arch_reason`` is the caller's cached architecture probe
    — :func:`repro.nn.vmap.stackable_reason` *plus* the dropout check
    (see :meth:`SisaEnsemble._chain_arch_reason`)."""
    if arch_reason is not None:
        return f"architecture not stackable: {arch_reason}"
    if len(tasks) < 2:
        return "cohort has a single participant"
    config = tasks[0].config
    if any(task.config != config for task in tasks[1:]):
        return "cohort members have different train configs"
    return None


def chain_arch_reason(model: Module) -> Optional[str]:
    """Architecture-level obstacle to stage-lockstep chain vectorization.

    Beyond :func:`~repro.nn.vmap.stackable_reason`, dropout blocks
    chains specifically: a per-client chain keeps one model — and one
    dropout stream — across its stages, which stage-wise model
    reconstruction would reset.
    """
    from ..nn.vmap import stackable_reason

    reason = stackable_reason(model)
    if reason is not None:
        return reason
    for module in model.modules():
        if isinstance(module, Dropout):
            return (
                "dropout keeps one RNG stream across chain stages; "
                "stage-lockstep reconstruction would reset it"
            )
    return None


_TRAIN_FUSER = TrainTaskFuser()


def run_chains_vectorized(
    tasks: Sequence[ChainTask],
    backend: Any,
    stats: Optional[dict] = None,
) -> List[ChainResult]:
    """Run SISA retrain chains in stage lockstep, stacking across shards.

    Per slice index, every chain whose stage trains becomes one member of
    a fused :class:`~repro.federated.vectorized.VectorizedTrainTask`
    (per-member ``member_states``, raw codec), stack-chunked across the
    backend's workers; empty stages checkpoint the chain's current state
    without training, exactly as :meth:`ChainTask.run` does.  The
    emulation is exact because a chain stage is a fresh-optimizer
    :func:`~repro.training.trainer.train` call whose model state
    round-trips losslessly through state dicts (callers gate out dropout,
    the one piece of cross-stage state that does not).  Stages whose
    member batch fails the cohort gate (e.g. step counts diverged after
    a deletion) run per-member through the same backend, with the reason
    tallied into ``stats["fallback_reasons"]``.
    """
    tasks = list(tasks)
    k = len(tasks)
    workers = backend_worker_count(backend)
    currents: List[Optional[StateDict]] = [task.init_state for task in tasks]
    rng_states: List[RngState] = [task.rng_state for task in tasks]
    checkpoints: List[Dict[int, StateDict]] = [{} for _ in tasks]
    histories: List[list] = [[] for _ in tasks]
    steps = [0] * k
    stage_maps = [
        {stage.stage_id: stage for stage in task.stages} for task in tasks
    ]
    stage_ids = sorted({stage_id for mapping in stage_maps for stage_id in mapping})

    for stage_id in stage_ids:
        members = [
            index
            for index in range(k)
            if (stage := stage_maps[index].get(stage_id)) is not None
            and stage.indices is not None
            and len(stage.indices) > 0
        ]
        if members:
            member_tasks = [
                TrainTask(
                    task_id=index,
                    model_factory=tasks[index].model_factory,
                    dataset=tasks[index].dataset,
                    config=tasks[index].config,
                    rng_state=rng_states[index],
                    model_state=currents[index],
                    indices=stage_maps[index][stage_id].indices,
                )
                for index in members
            ]
            # The chains' shared architecture was probed by the caller's
            # gate; only the per-stage data checks remain.
            reason = cohort_fallback_reason(
                member_tasks, None, ragged_probe(member_tasks[0].model_factory)
            )
            if reason is None:
                fused = _TRAIN_FUSER.fuse(member_tasks)
                chunks = fused.split(workers)
                if stats is not None:
                    chunk_tally = stats.setdefault("chunks", {})
                    chunk_tally[len(chunks)] = chunk_tally.get(len(chunks), 0) + 1
                per_chunk = backend.run_tasks(chunks)
                results = [
                    result
                    for chunk_results in per_chunk
                    for result in chunk_results
                ]
            else:
                if stats is not None:
                    reasons = stats.setdefault("fallback_reasons", {})
                    reasons[reason] = reasons.get(reason, 0) + 1
                results = backend.run_tasks(member_tasks)
            for member_index, result in zip(members, results):
                currents[member_index] = result.state
                rng_states[member_index] = result.rng_state
                histories[member_index].append(result.history)
                steps[member_index] += 1
        for index in range(k):
            if stage_id not in stage_maps[index]:
                continue
            if currents[index] is None:
                # Never-trained chain checkpoints its factory-fresh state
                # (the per-chain path snapshots the model it built at
                # start — identical, the factory reseeds per call).
                currents[index] = tasks[index].model_factory().state_dict()
            checkpoints[index][stage_id] = currents[index]

    results: List[ChainResult] = []
    for index, task in enumerate(tasks):
        if currents[index] is None:
            currents[index] = task.model_factory().state_dict()
        results.append(
            ChainResult(
                task_id=task.task_id,
                checkpoints=checkpoints[index],
                final_state=currents[index],
                steps=steps[index],
                rng_state=rng_states[index],
                histories=histories[index],
            )
        )
    return results


register_fuser(GoldfishTaskFuser())
register_fuser(RapidTaskFuser())

__all__ = [
    "GoldfishTaskFuser",
    "RapidTaskFuser",
    "VectorizedGoldfishTask",
    "VectorizedRapidTask",
    "chain_arch_reason",
    "run_chains_vectorized",
    "sisa_chain_fallback_reason",
]
