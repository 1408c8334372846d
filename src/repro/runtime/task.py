"""Pure, picklable units of training work.

The execution backends in :mod:`repro.runtime.backends` know nothing about
federated learning or SISA — they run *tasks*.  A task is a self-contained
description of one piece of training work:

* :class:`TrainTask` — one plain supervised training run (a federated
  client's local epoch(s), one data shard's training pass, a retraining
  baseline step);
* :class:`ChainTask` — a sequence of incremental training stages over one
  model with a checkpoint captured after every stage (a SISA shard's
  slice-by-slice schedule); stacked, K chains run their stages in
  lockstep;
* :class:`StackedTask` — K scalar tasks of one kind run as one stacked
  graph (:mod:`repro.federated.vectorized`).  A stack is a *list of
  tasks*: a kind is stackable when it defines ``stack_key()``,
  ``stack_fallback_reason(tasks, arch_reason)`` and
  ``run_stack(tasks, basis=None)`` next to its fields, and its ``run()``
  is ``run_stack([self])[0]`` — one body per kind, whatever K is; a
  kind whose ``stack_key`` is ``None`` runs one task at a time.  The
  two kinds here are the stackable ones; the unlearning protocols'
  client tasks (:mod:`repro.unlearning.protocols`) are ``TrainTask``
  subclasses that run one client each.

Determinism contract
--------------------
A task carries *everything* its computation reads — the model state dict,
the data, the hyper-parameters, and what drives mini-batch shuffling —
and its result returns everything the computation advanced.  Running a
task is therefore a pure function: the same task produces the same
result on any backend, in any process, in any order.  A
:class:`TrainTask` carries the exact bit-generator state of its RNG and
returns the advanced one; callers that absorb the returned ``rng_state``
back into their own generator reproduce the serial execution bit for
bit.  A :class:`ChainTask` carries a seed instead: each stage draws from
its own stream keyed by (seed, chain, stage) (:func:`stage_rng`), so no
stream position is carried between stages or returned.

Everything a task holds is plain data (NumPy arrays, dataclasses, dicts),
so tasks and results pickle cleanly; the only caveat is ``model_factory``,
which must be picklable to travel to a pool worker or cluster agent
but may be any callable (closures included) under the in-process
backends — and a task that cannot be pickled still completes under
``pool``/``cluster``, run inline by the dispatcher.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn.module import Module
from ..training.config import TrainConfig, TrainHistory
from ..training.trainer import train
from .codec import EncodedUpdate, dense_nbytes, get_codec

# {name: array} model snapshot — same shape as Module.state_dict().
StateDict = Dict[str, np.ndarray]
# np.random.Generator.bit_generator.state — a plain picklable dict.
RngState = Dict[str, Any]


def capture_rng(rng: np.random.Generator) -> RngState:
    """Snapshot a generator's exact position in its stream."""
    return rng.bit_generator.state


def restore_rng(state: RngState) -> np.random.Generator:
    """Rebuild a generator positioned exactly at ``state``."""
    rng = np.random.default_rng(0)
    rng.bit_generator.state = state
    return rng


def stage_rng(seed: int, chain: int, stage: int) -> np.random.Generator:
    """Stage ``stage`` of chain ``chain``'s private stream: the grandchild
    ``SeedSequence(seed).spawn(...)[chain].spawn(...)[stage]``.  It
    depends on the key alone, never on what earlier stages drew."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain, stage)))


@dataclass
class TrainResult:
    """Everything a :class:`TrainTask` advanced.

    Under the default ``raw`` codec ``state`` is the dense trained state
    dict, exactly as it always was.  Under any other
    :mod:`~repro.runtime.codec` codec the state travels *encoded* against
    the broadcast basis instead: ``state`` is ``None``, ``update`` holds
    the :class:`~repro.runtime.codec.EncodedUpdate`, and the receiver
    calls :meth:`resolve_state` with the basis it broadcast.
    ``update_nbytes`` is the wire size of the return's model payload in
    either case — what the transport metering sums into per-round
    byte counts.  ``extra`` is protocol state a client task returns
    beside its model (an unlearning protocol's teacher logits or FIM
    estimate), charged up the wire with it.
    """

    task_id: Any
    state: Optional[StateDict]
    history: TrainHistory
    rng_state: RngState
    update: Optional[EncodedUpdate] = None
    update_nbytes: int = 0
    extra: Optional[dict] = None

    def resolve_state(self, basis: Optional[StateDict] = None) -> StateDict:
        """The trained state dict, decoding ``update`` when encoded."""
        if self.state is not None:
            return self.state
        if self.update is None:
            raise ValueError("result carries neither a state nor an update")
        if basis is None:
            raise ValueError(
                f"result for task {self.task_id!r} is {self.update.codec!r}-"
                "encoded; decoding needs the broadcast basis state"
            )
        return get_codec(self.update.codec).decode(self.update, basis)


def encode_trained_state(codec: str, state: StateDict, basis: Optional[StateDict]):
    """Run a trained state through the task-side half of an update codec.

    Returns ``(state_or_None, update, update_nbytes)`` — the exact fields
    a :class:`TrainResult` carries.  ``raw`` (or a missing basis) returns
    the dense state untouched; ``delta`` encodes against ``basis`` and
    nulls the dense state.

    Every member of :meth:`TrainTask.run_stack` — lone or stacked — goes
    through this one call, so both paths apply the identical transform.
    """
    update = None
    update_nbytes = dense_nbytes(state)
    if codec != "raw" and basis is not None:
        update = get_codec(codec).encode(state, basis)
        update_nbytes = update.nbytes
        state = None
    return state, update, update_nbytes


@dataclass
class TrainTask:
    """One supervised training run as a pure work unit.

    ``model_state=None`` means "train the factory-fresh initialisation";
    otherwise the state dict is loaded before training starts.

    ``indices`` optionally selects the training rows out of ``dataset``;
    the subset is materialised inside :meth:`run`, in whichever process
    executes the task.  Carrying a selection instead of a pre-sliced copy
    keeps the parent's fan-out memory at O(data).  Under ``pool`` and
    ``cluster`` a by-value ``dataset`` is lifted out of the task's pickle
    and crosses to each worker once, content-addressed in the worker's
    store (:class:`~repro.runtime.dispatch.WorkerStore`), like
    ``model_state``; a shared-memory one
    (:meth:`~repro.data.dataset.ArrayDataset.share`) pickles as a handle.
    Training on
    ``dataset.subset(indices)`` is array-identical to training on a
    pre-materialised subset, so results are unchanged.

    ``codec`` names the :mod:`~repro.runtime.codec` update codec the
    result's trained state is encoded with against ``model_state`` (the
    broadcast basis).  ``"raw"`` — the default everywhere — returns the
    dense state exactly as before; the encode runs *inside* the task so
    every backend (serial included) applies the identical transform and
    the worker pool's pipes carry the encoded payload.

    ``model_version`` optionally carries ``model_state``'s
    :func:`~repro.runtime.codec.state_version` content hash, precomputed
    by the caller.  A federated round broadcasts *one* global state to
    every participant, so the caller can hash it once instead of the
    pool hashing every task's (identical) copy at dispatch; stamping a
    hash that does not match ``model_state``'s content breaks the
    worker store, so only ever stamp the hash of the exact state the
    task carries.  ``None`` means "let the transport compute it".
    """

    task_id: Any
    model_factory: Callable[[], Module]
    dataset: ArrayDataset
    config: TrainConfig
    rng_state: RngState
    model_state: Optional[StateDict] = None
    indices: Optional[np.ndarray] = None
    codec: str = "raw"
    model_version: Optional[str] = None

    def run(self) -> TrainResult:
        return self.run_stack([self])[0]

    def local_pass(self, model: Module, dataset: ArrayDataset, rng: np.random.Generator):
        """A lone task's training of ``model`` on its selected rows:
        plain SGD under ``config``.  Returns ``(history, extra)``; the
        unlearning protocols' client tasks replace it and return their
        protocol state as ``extra``."""
        return train(model, dataset, self.config, rng), None

    def stack_key(self) -> Any:
        """Tasks with equal keys may share a stack: one codec, one
        stamped broadcast version."""
        return (self.codec, self.model_version)

    @staticmethod
    def stack_fallback_reason(
        tasks: Sequence["TrainTask"], arch_reason: Optional[str]
    ) -> Optional[str]:
        """Why ``tasks`` cannot train as one stack (``None`` = they can).

        ``arch_reason`` is the caller's verdict on the shared
        architecture (:func:`repro.federated.vectorized.arch_probe`'s
        stackability half, or ``None`` when the caller gated it already).
        """
        from ..federated.vectorized import arch_probe, stack_fallback_reason

        return stack_fallback_reason(
            [task.config for task in tasks],
            [
                len(task.dataset) if task.indices is None else len(task.indices)
                for task in tasks
            ],
            [task.dataset for task in tasks],
            arch_reason,
            arch_probe(tasks[0].model_factory).ragged,
        )

    @staticmethod
    def run_stack(
        tasks: Sequence["TrainTask"], basis: Optional[StateDict] = None
    ) -> List[TrainResult]:
        """Train the members — one natively, several as one stacked graph.

        ``basis`` is the broadcast state a :class:`StackedTask` carries
        once for all its members (their own ``model_state`` is then
        dropped); without it every member loads, and encodes against,
        its own ``model_state``.
        """
        bases = [task.model_state if basis is None else basis for task in tasks]
        models = [task.model_factory() for task in tasks]
        for model, state in zip(models, bases):
            if state is not None:
                model.load_state_dict(state)
        rngs = [restore_rng(task.rng_state) for task in tasks]
        datasets = [
            task.dataset if task.indices is None else task.dataset.subset(task.indices)
            for task in tasks
        ]
        extras: List[Optional[dict]] = [None] * len(tasks)
        if len(tasks) == 1:
            history, extras[0] = tasks[0].local_pass(models[0], datasets[0], rngs[0])
            histories = [history]
        else:
            from ..federated.vectorized import VectorizedCohort

            histories = VectorizedCohort(models, datasets, rngs).train(tasks[0].config)
        results: List[TrainResult] = []
        for task, model, base, rng, history, extra in zip(
            tasks, models, bases, rngs, histories, extras
        ):
            state, update, update_nbytes = encode_trained_state(
                task.codec, model.state_dict(), base
            )
            results.append(
                TrainResult(
                    task_id=task.task_id,
                    state=state,
                    history=history,
                    rng_state=capture_rng(rng),
                    update=update,
                    update_nbytes=update_nbytes,
                    extra=extra,
                )
            )
        return results


@dataclass
class StackedTask:
    """K scalar tasks of one stackable kind as a single pure work unit.

    Drop-in for the batch of its ``members``: any backend runs it through
    its zero-arg :meth:`run`, and the result is the list of the members'
    ordinary results in member order.  A broadcast basis every member
    shares is carried **once** — ``model_state`` / ``model_version``, the
    field names the dispatcher lifts into the worker's store — with the
    members' own copies dropped
    (:func:`repro.federated.vectorized.fuse` decides).
    """

    task_id: Any  # tuple(member ids) — one dispatchable unit
    members: List[Any]  # the scalar tasks, in stack order
    model_state: Optional[StateDict] = None
    model_version: Optional[str] = None

    def run(self) -> List[Any]:
        return type(self.members[0]).run_stack(self.members, self.model_state)

    def split(self, n_chunks: int) -> List["StackedTask"]:
        """Deterministic contiguous partition into sub-stacks.

        Each chunk holds one contiguous range of ``members``; the basis
        is shared by reference (the worker store dedupes it per
        worker).  Stacking is bit-exact per slice, so the
        chunks' results concatenate to the unsplit run's, member for
        member.  ``n_chunks`` is clamped to ``[1, K]``, so callers pass
        their worker count as is.
        """
        k = len(self.members)
        n_chunks = max(1, min(int(n_chunks), k))
        if n_chunks == 1:
            return [self]
        chunks = []
        for part in np.array_split(np.arange(k), n_chunks):
            members = self.members[int(part[0]) : int(part[-1]) + 1]
            chunks.append(
                replace(
                    self,
                    task_id=tuple(member.task_id for member in members),
                    members=members,
                )
            )
        return chunks


@dataclass
class ChainStage:
    """One stage of a :class:`ChainTask`.

    ``indices`` selects this stage's training rows from the chain task's
    shared ``dataset``; the subset is materialised lazily, one stage at a
    time, inside :meth:`ChainTask.run` (stages are typically cumulative
    prefixes, so copying them all up front would multiply peak memory).
    ``indices=None`` (or an empty selection) records a checkpoint without
    training — SISA's "entire prefix deleted" case.
    """

    stage_id: int
    indices: Optional[np.ndarray]


@dataclass
class ChainResult:
    """Everything a :class:`ChainTask` advanced."""

    task_id: Any
    checkpoints: Dict[int, StateDict]
    final_state: StateDict
    steps: int  # stages that actually trained (non-empty datasets)
    histories: List[TrainHistory] = field(default_factory=list)
    # Why this chain trained a stage alone although it ran in a stack
    # (that stage's members failed the data gate) — distinct reasons, in
    # stage order; empty for a lone chain.  Never a silent fallback.
    fallback_reasons: List[str] = field(default_factory=list)


@dataclass
class ChainTask:
    """Incremental training with a checkpoint after every stage.

    The stages run strictly in order (they are a dependency chain, not
    parallel work); the parallelism lives *across* chain tasks — e.g.
    every SISA shard retrains as its own chain, concurrently, and chains
    of one factory stack (:meth:`run_stack`).  All stages index into one
    shared ``dataset``, held once per task.

    ``task_id`` is the chain's index (a non-negative int): stage ``s``
    trains from :func:`stage_rng` ``(seed, task_id, s)``, so a stage
    shuffles alike whichever stage the chain resumes from.
    """

    task_id: int
    model_factory: Callable[[], Module]
    dataset: ArrayDataset
    stages: List[ChainStage]
    config: TrainConfig
    seed: int
    init_state: Optional[StateDict] = None

    def run(self) -> ChainResult:
        return self.run_stack([self])[0]

    def stack_key(self) -> Any:
        """Chains of one factory may share a stack (the gate names
        unequal configs rather than splitting on them)."""
        return id(self.model_factory)

    @staticmethod
    def stack_fallback_reason(
        tasks: Sequence["ChainTask"], arch_reason: Optional[str]
    ) -> Optional[str]:
        """Why ``tasks`` cannot run in stage lockstep (``None`` = they
        can).  What each stage trains on is only known stage by stage, so
        the data checks are :meth:`run_stack`'s, per stage.
        """
        from ..federated.vectorized import arch_probe

        if arch_reason is None:
            arch_reason = arch_probe(tasks[0].model_factory).stackable
        if arch_reason is not None:
            return f"architecture not stackable: {arch_reason}"
        if len(tasks) < 2:
            return "cohort has a single participant"
        config = tasks[0].config
        if any(task.config != config for task in tasks[1:]):
            return "cohort members have different train configs"
        return None

    @staticmethod
    def run_stack(
        tasks: Sequence["ChainTask"], basis: Optional[StateDict] = None
    ) -> List[ChainResult]:
        """Run the chains — one on one model, several in stage lockstep.

        Per stage id, every member whose stage trains becomes a
        :class:`TrainTask` (its own current state and a capture of its
        stage's generator) and
        they train as one stack — or each alone when that
        stage's members fail the data gate (e.g. step counts diverged
        after a deletion), the reason riding back on every such member's
        result.  Empty stages checkpoint the chain's current state
        without training, exactly as a lone chain does.  Lockstep is
        exact because a chain stage is a fresh-optimizer
        :func:`~repro.training.trainer.train` call whose model state
        round-trips losslessly through state dicts.
        """
        del basis  # every chain resumes from its own checkpoint
        if len(tasks) == 1:
            # One model across all the stages.
            (task,) = tasks
            model = task.model_factory()
            if task.init_state is not None:
                model.load_state_dict(task.init_state)
            lone = ChainResult(task.task_id, {}, None, 0)
            for stage in task.stages:
                if stage.indices is not None and len(stage.indices) > 0:
                    subset = task.dataset.subset(stage.indices)
                    rng = stage_rng(task.seed, task.task_id, stage.stage_id)
                    lone.histories.append(train(model, subset, task.config, rng))
                    lone.steps += 1
                lone.checkpoints[stage.stage_id] = model.state_dict()
            lone.final_state = model.state_dict()
            return [lone]
        # A chain that never trains ends on (and checkpoints) its start.
        results = [ChainResult(task.task_id, {}, task.init_state, 0) for task in tasks]
        stage_maps = [{stage.stage_id: stage for stage in task.stages} for task in tasks]
        for stage_id in sorted({stage_id for stages in stage_maps for stage_id in stages}):
            members = [
                index
                for index, stages in enumerate(stage_maps)
                if (stage := stages.get(stage_id)) is not None
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
                        rng_state=capture_rng(
                            stage_rng(tasks[index].seed, tasks[index].task_id, stage_id)
                        ),
                        model_state=results[index].final_state,
                        indices=stage_maps[index][stage_id].indices,
                    )
                    for index in members
                ]
                # The chains' shared architecture passed the chain gate;
                # only this stage's data checks remain.
                reason = TrainTask.stack_fallback_reason(member_tasks, None)
                groups = [member_tasks] if reason is None else [[t] for t in member_tasks]
                trained = [r for group in groups for r in TrainTask.run_stack(group)]
                for index, stage_result in zip(members, trained):
                    result = results[index]
                    result.final_state = stage_result.state
                    result.histories.append(stage_result.history)
                    result.steps += 1
                    if reason is not None and reason not in result.fallback_reasons:
                        result.fallback_reasons.append(reason)
            for result, task, stages in zip(results, tasks, stage_maps):
                if stage_id in stages:
                    if result.final_state is None:
                        # A never-trained chain checkpoints its
                        # factory-fresh state (a lone chain snapshots the
                        # model it built at start — identical, the
                        # factory reseeds per call).
                        result.final_state = task.model_factory().state_dict()
                    result.checkpoints[stage_id] = result.final_state
        for result, task in zip(results, tasks):
            if result.final_state is None:
                result.final_state = task.model_factory().state_dict()
        return results
