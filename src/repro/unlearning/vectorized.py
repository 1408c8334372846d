"""Stage-lockstep vectorization of SISA's per-shard chains.

:mod:`repro.federated.vectorized` stacks the members of one task batch;
the protocol round tasks (Goldfish student passes, B2's
FIM-preconditioned retraining) say how they stack next to their own
fields in :mod:`repro.unlearning.protocols`.  What is left for this
module is the one flow that is not a batch of independent tasks: SISA's
retrain chains, so ``vectorize=True`` accelerates every flow the paper
evaluates, not just plain FedAvg rounds.

SISA chains vectorize in **stage lockstep**: per slice index, every
affected shard's stage becomes one :class:`~repro.runtime.task.TrainTask`
member of a :class:`~repro.runtime.task.StackedTask`, each keeping its
own initial state, mirroring the per-chain path exactly because a chain
stage is a fresh-optimizer training run whose model state round-trips
losslessly through state dicts.  The one genuine obstacle is dropout: a
per-client chain keeps *one* model (and its dropout stream) across
stages, while stage-wise reconstruction would reset the stream — so
dropout architectures fall back, with the reason recorded.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..federated.vectorized import backend_worker_count, fuse
from ..nn.layers import Dropout
from ..nn.module import Module
from ..nn.vmap import stackable_reason
from ..runtime.task import ChainResult, ChainTask, RngState, StateDict, TrainTask


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


def run_chains_vectorized(
    tasks: Sequence[ChainTask],
    backend: Any,
    stats: Optional[dict] = None,
) -> List[ChainResult]:
    """Run SISA retrain chains in stage lockstep, stacking across shards.

    Per slice index, every chain whose stage trains becomes one member of
    a :class:`~repro.runtime.task.StackedTask` (each member its own
    initial state, raw codec), stack-chunked across the backend's
    workers; empty stages checkpoint the chain's current state
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
            reason = TrainTask.stack_fallback_reason(member_tasks, None)
            if reason is None:
                chunks = fuse(member_tasks).split(workers)
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


__all__ = [
    "chain_arch_reason",
    "run_chains_vectorized",
    "sisa_chain_fallback_reason",
]
