"""Client-vectorized execution: K homogeneous clients, one batched graph.

A federated round is embarrassingly parallel *and* embarrassingly
homogeneous: every participant runs the same architecture, the same
hyper-parameters and the same number of steps on its own data.  The
per-client path pays K python-dispatched autograd graphs per round-step;
this module stacks the cohort instead — parameters and per-step batches
gain a leading axis of size K (:mod:`repro.nn.vmap`), and a round-step
becomes *one* forward/backward/optimizer-step over the stacked arrays, a
handful of BLAS calls regardless of K.

Parity contract
---------------
The stacked path preserves every per-client semantic:

* **RNG streams** — each slice's mini-batches come from that client's own
  :class:`~repro.data.loader.DataLoader` iteration (the K loaders are
  stepped in lockstep and their batches stacked), and each slice's
  dropout masks come from that client's own generator, so every client's
  RNG advances exactly as it would standalone.
* **Numerics** — stacked elementwise ops, per-slice GEMMs and
  same-axis reductions reproduce the per-client float operations in the
  same order; slice results are **bit-identical** to the per-client path
  on every supported layer (pinned by ``tests/nn/test_vmap.py`` and the
  end-to-end round parity tests).
* **Results plumbing** — a stack is a list of tasks:
  :class:`~repro.runtime.task.StackedTask` holds the K scalar tasks
  themselves and returns one ordinary result per member (for
  :class:`~repro.runtime.task.TrainTask` members a
  :class:`~repro.runtime.task.TrainResult`: same codec encoding, same
  RNG capture), so clients absorb them exactly as they absorb
  per-client results, on every backend.

* **The loop** — :meth:`VectorizedCohort.train` does not mirror
  :func:`repro.training.trainer.train`; both run
  :func:`repro.training.trainer.run_epochs`, with the same hard loss
  (:mod:`repro.nn.losses` reduces ``(K, N, classes)`` per slice), the
  same ``SGD`` and the same ``clip_grad_norm``.  Only the step's graph
  differs: one stacked forward instead of one model's.

Eligibility
-----------
:func:`stack_fallback_reason` is the one gate of the fast path (every
stackable task kind's own ``stack_fallback_reason`` asks it — train,
Goldfish and B2 cohorts alike, and a stack of SISA chains per stage,
through the stage's train tasks): the cohort must have ≥ 2 members
with equal train configs, a stackable architecture
(:func:`repro.nn.vmap.stack_modules`), equal sample shapes and dtypes,
and equal per-member *step counts*.  Member dataset sizes may differ as
long as the step counts match: the final batch is then ragged and runs
zero-padded, with each slice computed at its true row count (row-exact
per-slice GEMMs, per-slice loss heads) — unless the architecture
contains a layer whose gradients contract over the batch axis
(``Conv2d``, ``GroupNorm``), which :func:`repro.nn.vmap.ragged_support_reason` gates
out (:func:`arch_probe` asks both architecture questions once per
factory).  Gradient clipping runs as per-slice global norms
(:func:`repro.nn.optim.clip_grad_norm` with the stack size).  Ineligible
cohorts fall back to the per-client path with a recorded reason — never
silently.
"""

from __future__ import annotations

import logging
import operator
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn.losses import get_hard_loss
from ..nn.module import Module
from ..nn.tensor import Tensor
from ..nn.vmap import (
    StackedModel,
    VmapUnsupported,
    ragged_support_reason,
    restack_reason,
    stack_modules,
    stackable_reason,
)
from ..runtime.task import StackedTask, StateDict, TrainTask
from ..training.config import TrainConfig, TrainHistory
from ..training.trainer import follow_dataset_dtype, make_optimizer, run_epochs


class VectorizedCohort:
    """K (model, dataset, rng) triples trained as one stacked graph.

    Runs the same loop as :func:`repro.training.trainer.train`
    (:func:`~repro.training.trainer.run_epochs`: dtype cast from each
    member's dataset, fresh SGD, per-epoch reshuffle from each member's
    own generator, per-batch zero-grad/forward/backward/step) with the K
    graphs of a step fused into one.
    """

    def __init__(
        self,
        models: Sequence[Module],
        datasets: Sequence[ArrayDataset],
        rngs: Sequence[np.random.Generator],
    ) -> None:
        if not (len(models) == len(datasets) == len(rngs)):
            raise ValueError("models, datasets and rngs must align")
        if not models:
            raise ValueError("empty cohort")
        for dataset in datasets:
            if len(dataset) == 0:
                raise ValueError("cannot train on an empty dataset")
        # trainer.train's cast: each member's model follows its dataset's
        # floating dtype *before* stacking (stacking requires — and
        # preserves — one cohort-wide dtype).
        for model, dataset in zip(models, datasets):
            follow_dataset_dtype(model, dataset)
        self.models = list(models)
        self.datasets = list(datasets)
        self.rngs = list(rngs)
        self.stacked: StackedModel = stack_modules(self.models)

    def train(
        self,
        config: TrainConfig,
        optimizer_factory: Optional[Callable[[List], Any]] = None,
    ) -> List[TrainHistory]:
        """Train all members for ``config.epochs``; one history per member.

        After the call the *source* models hold their trained slices
        (synced back from the stack) and each member's generator sits
        exactly where its standalone training run would have left it.

        ``optimizer_factory`` (stacked parameter list → optimizer)
        substitutes a protocol optimizer (e.g. B2's diagonal-FIM SGD) for
        the default :class:`~repro.nn.optim.SGD` over the stack.
        """
        counts = {
            -(-len(dataset) // config.batch_size) for dataset in self.datasets
        }
        if len(counts) != 1:
            raise ValueError(
                f"cohort step counts differ (dataset sizes beyond "
                f"final-batch padding): {sorted(counts)}"
            )
        loss_fn = get_hard_loss(config.loss)
        if optimizer_factory is not None:
            optimizer = optimizer_factory(self.stacked.parameters())
        else:
            optimizer = make_optimizer(self.stacked, config)
        self.stacked.train()

        def step(batches):
            # Equal step counts (checked above) keep the K loaders
            # aligned, so only a final batch can be ragged.
            if len({len(labels) for _, _, labels in batches}) == 1:
                images = np.stack([images for _, images, _ in batches])
                labels = np.stack([labels for _, _, labels in batches])
                losses = loss_fn(self.stacked(Tensor(images)), labels)
                return losses.sum(), losses.data.tolist()
            # Ragged: each member's loss on its own true rows.  The
            # left-to-right add seeds every member's subgraph with
            # exactly 1.0, as its lone ``loss.backward()`` would.
            logits = self.stacked.forward_members([images for _, images, _ in batches])
            losses = [
                loss_fn(member_logits, labels)
                for member_logits, (_, _, labels) in zip(logits, batches)
            ]
            return reduce(operator.add, losses), [loss.item() for loss in losses]

        histories = run_epochs(
            self.datasets, self.rngs, config, optimizer, step, stack=len(self.models)
        )
        self.stacked.sync_back()
        return histories


def stack_fallback_reason(
    configs: Sequence[TrainConfig],
    sizes: Sequence[int],
    datasets: Sequence[ArrayDataset],
    arch_reason: Optional[str],
    ragged_reason: Optional[str],
    forget_sizes: Sequence[int] = (),
) -> Optional[str]:
    """Why these members cannot train as one stack (``None`` = they can).

    The one gate behind every stackable kind's own
    ``stack_fallback_reason``.  ``configs`` and ``sizes`` are the
    members' train configs and active dataset sizes (the sizes set the
    step count); ``datasets`` every dataset a step stacks batches of;
    ``arch_reason`` and ``ragged_reason`` the two halves of the shared
    architecture's :func:`arch_probe` — the second consulted only
    when zero-padded (ragged) batches would actually occur, i.e. when
    ``sizes`` differ or Goldfish's ``forget_sizes`` (stacked per step
    too) do.
    """
    if arch_reason is not None:
        return f"architecture not stackable: {arch_reason}"
    if len(configs) < 2:
        return "cohort has a single participant"
    config = configs[0]
    if any(other != config for other in configs[1:]):
        return "cohort members have different train configs"
    if config.epochs == 0:
        return "zero-epoch rounds have nothing to vectorize"
    if min(sizes) == 0:
        return "cohort member has an empty active dataset"
    # Unequal sizes are fine as long as the K loaders stay in lockstep —
    # i.e. equal step counts.  Only the final batch can then be ragged,
    # which the stacked path zero-pads with the rows masked out of the
    # loss (bit-exact).
    counts = {-(-size // config.batch_size) for size in sizes}
    if len(counts) != 1:
        return (
            f"cohort active dataset sizes differ beyond final-batch "
            f"padding (step counts {sorted(counts)})"
        )
    ragged = len(set(sizes)) != 1 or len(set(forget_sizes)) > 1
    if ragged and ragged_reason is not None:
        return f"ragged cohort (unequal sizes): {ragged_reason}"
    arrays = [np.asarray(dataset.images) for dataset in datasets]
    shapes = {array.shape[1:] for array in arrays}
    if len(shapes) != 1:
        return f"cohort sample shapes differ: {sorted(map(str, shapes))}"
    dtypes = {str(array.dtype) for array in arrays}
    if len(dtypes) != 1:
        return f"cohort data dtypes differ: {sorted(dtypes)}"
    return None


class ArchReasons(NamedTuple):
    """What :func:`arch_probe` found out about one architecture."""

    stackable: Optional[str]  # repro.nn.vmap.stackable_reason
    ragged: Optional[str]  # repro.nn.vmap.ragged_support_reason
    chain: Optional[str]  # stackable, or repro.nn.vmap.restack_reason


_ARCH_REASONS: Dict[Any, ArchReasons] = {}


def arch_probe(model_factory: Callable[[], Module]) -> ArchReasons:
    """Why the factory's architecture cannot stack / cannot take ragged
    steps / cannot run chain stages in lockstep (``None`` = it can), from
    one probe model per distinct factory.

    Architecture is a property of the factory, so every caller — the
    cohort planner and the tasks' own ``stack_fallback_reason``, chains
    included — shares this one cache (keying by the factory object
    itself keeps it alive, so ids are never recycled).
    """
    try:
        cached, cacheable = _ARCH_REASONS.get(model_factory), True
    except TypeError:  # unhashable factory: probe uncached
        cached, cacheable = None, False
    if cached is None:
        model = model_factory()
        stackable = stackable_reason(model)
        cached = ArchReasons(
            stackable, ragged_support_reason(model), stackable or restack_reason(model)
        )
        if cacheable:
            _ARCH_REASONS[model_factory] = cached
    return cached


# ----------------------------------------------------------------------
# Cohort planning: group → gate → fuse → stack-chunk across workers
# ----------------------------------------------------------------------
def backend_worker_count(backend) -> int:
    """The backend's genuine parallelism (1 for serial-equivalent)."""
    probe = getattr(backend, "worker_count", None)
    return int(probe()) if callable(probe) else 1


def _states_equal(a: StateDict, b: StateDict) -> bool:
    if a.keys() != b.keys():
        return False
    return all(
        a[key].dtype == b[key].dtype and np.array_equal(a[key], b[key]) for key in a
    )


def _shared_state(tasks: Sequence[TrainTask]) -> Optional[StateDict]:
    """The one state every member would load, if there is one: the same
    object, a stamped version in common, or equal values (post-broadcast
    cohorts carry equal-valued copies; loading — and encoding against —
    the first is bit-identical to per-member)."""
    states = [task.model_state for task in tasks]
    first = states[0]
    if any(state is None for state in states):
        return None
    version = tasks[0].model_version
    if (
        all(state is first for state in states)
        or (version is not None and all(task.model_version == version for task in tasks))
        or all(_states_equal(state, first) for state in states[1:])
    ):
        return first
    return None


def fuse(tasks: Sequence[Any], shared_basis: Optional[StateDict] = None) -> StackedTask:
    """One :class:`~repro.runtime.task.StackedTask` over ``tasks`` (one
    stackable kind, gate already passed).

    :class:`~repro.runtime.task.TrainTask` members that share a broadcast
    basis — ``shared_basis`` when the caller names the state it just
    broadcast, else whatever :func:`_shared_state` finds — hand it to the
    stack and drop their own copies, so it travels once; otherwise every
    member keeps its own state.  Protocol tasks and chains always keep
    theirs: they carry per-member states by construction, and lifting
    one would change the bytes a pool ships.
    """
    tasks = list(tasks)
    task_id = tuple(task.task_id for task in tasks)
    basis = None
    if isinstance(tasks[0], TrainTask):
        basis = shared_basis if shared_basis is not None else _shared_state(tasks)
    if basis is None:
        return StackedTask(task_id, tasks)
    members = [replace(task, model_state=None, model_version=None) for task in tasks]
    return StackedTask(task_id, members, basis, tasks[0].model_version)


@dataclass
class CohortPlan:
    """One task batch's vectorized dispatch layout.

    ``units`` are the dispatchable work items (stack chunks and unfused
    singles) in submission order; ``slots[i]`` maps original task ``i``
    to ``(unit_index, member_index_or_None)`` for reassembly.
    """

    units: List[Any] = field(default_factory=list)
    slots: List[Any] = field(default_factory=list)
    fused_groups: int = 0
    chunk_counts: List[int] = field(default_factory=list)
    fallback_reasons: List[str] = field(default_factory=list)


def plan_cohort(
    tasks: Sequence[Any],
    workers: int,
    shared_basis: Optional[StateDict] = None,
) -> CohortPlan:
    """Group a task batch into fusable cohorts and stack-chunk each one.

    Tasks of the same type and ``stack_key()`` form a cohort; eligible
    cohorts (per their kind's ``stack_fallback_reason``) fuse into one
    stacked unit split into ``min(members, workers)`` contiguous chunks,
    so vectorization and multi-worker backends compose.  Everything else
    dispatches as the original per-member task, with the distinct
    reasons recorded.
    """
    tasks = list(tasks)
    plan = CohortPlan(slots=[None] * len(tasks))
    groups: Dict[Any, List[int]] = {}  # insertion-ordered
    for index, task in enumerate(tasks):
        if not hasattr(task, "stack_key"):
            reason = (
                f"no vectorized implementation for {type(task).__name__}"
            )
            if reason not in plan.fallback_reasons:
                plan.fallback_reasons.append(reason)
            continue
        groups.setdefault((type(task), task.stack_key()), []).append(index)
    for (kind, _), indices in groups.items():
        group_tasks = [tasks[i] for i in indices]
        if len(group_tasks) < 2:
            reason: Optional[str] = "cohort has a single participant"
        else:
            reason = kind.stack_fallback_reason(
                group_tasks, arch_probe(group_tasks[0].model_factory).stackable
            )
        if reason is not None:
            if reason not in plan.fallback_reasons:
                plan.fallback_reasons.append(reason)
            continue
        chunks = fuse(group_tasks, shared_basis).split(workers)
        plan.fused_groups += 1
        plan.chunk_counts.append(len(chunks))
        member = 0
        for chunk in chunks:
            unit_index = len(plan.units)
            plan.units.append(chunk)
            for offset in range(len(chunk.members)):
                plan.slots[indices[member]] = (unit_index, offset)
                member += 1
    for index, task in enumerate(tasks):
        if plan.slots[index] is None:
            plan.slots[index] = (len(plan.units), None)
            plan.units.append(task)
    return plan


def scatter_results(plan: CohortPlan, unit_results: Sequence[Any]) -> List[Any]:
    """Reassemble per-task results in original task order."""
    out: List[Any] = []
    for unit_index, member in plan.slots:
        result = unit_results[unit_index]
        out.append(result if member is None else result[member])
    return out


class VectorizeStats:
    """How ``vectorize=True`` behaved for one owner (a simulation, a SISA
    ensemble): batches fused vs fallen back, the distinct fallback
    reasons with their counts, and how many stack chunks fused cohorts
    were sharded into across the backend's workers
    (``{n_chunks: cohort count}``).  The body of every
    ``vectorize_report()``.
    """

    def __init__(self, logger: logging.Logger) -> None:
        self.logger = logger  # the owner's, so its warnings keep their name
        self.rounds_vectorized = 0
        self.rounds_fallback = 0
        self.fallback_reasons: Dict[str, int] = {}
        self.chunks: Dict[int, int] = {}

    def record_fallback(self, reason: str) -> None:
        if reason not in self.fallback_reasons:
            # Once per distinct reason — a silent fallback would make the
            # vectorized benchmark numbers unreproducible.
            self.logger.warning(
                "vectorize=True fell back to per-task execution: %s", reason
            )
        self.fallback_reasons[reason] = self.fallback_reasons.get(reason, 0) + 1

    def tally(self, plan: CohortPlan) -> None:
        """Count one planned batch: vectorized if any cohort fused."""
        for reason in plan.fallback_reasons:
            self.record_fallback(reason)
        if not plan.fused_groups:
            self.rounds_fallback += 1
            return
        self.rounds_vectorized += 1
        for count in plan.chunk_counts:
            self.chunks[count] = self.chunks.get(count, 0) + 1

    def report(self, requested: bool) -> dict:
        return {
            "requested": requested,
            "rounds_vectorized": self.rounds_vectorized,
            "rounds_fallback": self.rounds_fallback,
            "fallback_reasons": dict(self.fallback_reasons),
            "chunks": dict(self.chunks),
        }


__all__ = [
    "ArchReasons",
    "CohortPlan",
    "VectorizeStats",
    "VectorizedCohort",
    "VmapUnsupported",
    "arch_probe",
    "backend_worker_count",
    "fuse",
    "plan_cohort",
    "scatter_results",
    "stack_fallback_reason",
]
