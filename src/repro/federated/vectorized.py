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
* **Results plumbing** — :class:`VectorizedTrainTask` returns one
  ordinary :class:`~repro.runtime.task.TrainResult` per member (same
  codec encoding, same RNG capture), so clients absorb them exactly as
  they absorb per-client results, on every backend.

* **The loop** — :meth:`VectorizedCohort.train` does not mirror
  :func:`repro.training.trainer.train`; both run
  :func:`repro.training.trainer.run_epochs`, with the same hard loss
  (:mod:`repro.nn.losses` reduces ``(K, N, classes)`` per slice), the
  same ``SGD`` and the same ``clip_grad_norm``.  Only the step's graph
  differs: one stacked forward instead of one model's.

Eligibility
-----------
:func:`stack_fallback_reason` is the one gate of the fast path (train,
Goldfish and B2 cohorts all ask it): the cohort must have ≥ 2 members
with equal train configs, a stackable architecture
(:func:`repro.nn.vmap.stack_modules`), equal sample shapes and dtypes,
and equal per-member *step counts*.  Member dataset sizes may differ as
long as the step counts match: the final batch is then ragged and runs
zero-padded, with each slice computed at its true row count (row-exact
per-slice GEMMs, per-slice loss heads) — unless the architecture
contains a layer whose gradients contract over the batch axis
(``Conv2d``), which :func:`repro.nn.vmap.ragged_support_reason` gates
out.  Gradient clipping runs as per-slice global norms
(:func:`repro.nn.optim.clip_grad_norm` with the stack size).  Ineligible
cohorts fall back to the per-client path with a recorded reason — never
silently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..data.dataset import ArrayDataset
from ..nn.losses import get_hard_loss
from ..nn.module import Module
from ..nn.tensor import Tensor
from ..nn.vmap import (
    StackedModel,
    VmapUnsupported,
    ragged_support_reason,
    stack_modules,
)
from ..runtime.task import (
    RngState,
    StateDict,
    TrainResult,
    TrainTask,
    capture_rng,
    encode_trained_state,
    restore_rng,
)
from ..training.config import TrainConfig, TrainHistory
from ..training.trainer import follow_dataset_dtype, make_optimizer, run_epochs


def split_stack(task: Any, n_chunks: int, member_fields: Sequence[str]) -> List[Any]:
    """Deterministic contiguous partition of a stacked task into sub-stacks.

    Each chunk is a copy of the dataclass ``task`` with ``task_ids`` and
    the per-member list fields named in ``member_fields`` sliced to one
    contiguous member range (an optional list left empty stays empty);
    everything else — the broadcast basis, configs — is shared by
    reference.  Stacking is bit-exact per slice, so the chunks' results
    concatenate to the unsplit run's, member for member.  ``n_chunks`` is
    clamped to ``[1, K]``, so callers pass their worker count as is.
    """
    k = len(task.task_ids)
    n_chunks = max(1, min(int(n_chunks), k))
    if n_chunks == 1:
        return [task]
    fields = ("task_ids", *member_fields)
    chunks = []
    for part in np.array_split(np.arange(k), n_chunks):
        lo, hi = int(part[0]), int(part[-1]) + 1
        members = {name: getattr(task, name)[lo:hi] for name in fields}
        chunks.append(replace(task, task_id=tuple(members["task_ids"]), **members))
    return chunks


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
            if len({len(labels) for _, labels in batches}) == 1:
                images = np.stack([images for images, _ in batches])
                labels = np.stack([labels for _, labels in batches])
                losses = loss_fn(self.stacked(Tensor(images)), labels)
                return losses.sum(), losses.data.tolist()
            # Ragged: each member's loss on its own true rows.  The
            # left-to-right add seeds every member's subgraph with
            # exactly 1.0, as its lone ``loss.backward()`` would.
            logits = self.stacked.forward_members([images for images, _ in batches])
            losses = [
                loss_fn(member_logits, labels)
                for member_logits, (_, labels) in zip(logits, batches)
            ]
            return reduce(operator.add, losses), [loss.item() for loss in losses]

        histories = run_epochs(
            self.datasets, self.rngs, config, optimizer, step, stack=len(self.models)
        )
        self.stacked.sync_back()
        return histories


@dataclass
class VectorizedTrainTask:
    """One cohort's round of local training as a single pure work unit.

    Drop-in for a batch of K :class:`~repro.runtime.task.TrainTask`\\ s:
    any backend runs it through its zero-arg :meth:`run`, and the result
    is the list of the K members' ordinary
    :class:`~repro.runtime.task.TrainResult`\\ s in member order.  The
    broadcast basis is carried **once** (``model_state``, the same field
    name the worker pool's version-addressed broadcast cache lifts), not
    K times.
    """

    task_id: Any  # tuple(member ids) — one dispatchable unit
    task_ids: List[Any]  # per-member ids, in stack order
    model_factory: Callable[[], Module]
    datasets: List[ArrayDataset]
    config: TrainConfig
    rng_states: List[RngState]
    model_state: Optional[StateDict] = None
    indices: List[Optional[np.ndarray]] = field(default_factory=list)
    codec: str = "raw"
    model_version: Optional[str] = None
    residuals: List[Optional[StateDict]] = field(default_factory=list)
    # Per-member initial states for cohorts whose members do *not* share
    # a broadcast basis (e.g. SISA shards mid-chain).  Empty ⇒ every
    # member loads ``model_state`` (or trains factory-fresh when that is
    # None too).  When set, a member's own entry is also its codec basis.
    member_states: List[Optional[StateDict]] = field(default_factory=list)

    def run(self) -> List[TrainResult]:
        k = len(self.task_ids)
        models = [self.model_factory() for _ in range(k)]
        if self.member_states:
            for model, state in zip(models, self.member_states):
                if state is not None:
                    model.load_state_dict(state)
        elif self.model_state is not None:
            for model in models:
                model.load_state_dict(self.model_state)
        rngs = [restore_rng(state) for state in self.rng_states]
        indices = self.indices if self.indices else [None] * k
        datasets = [
            dataset if chosen is None else dataset.subset(chosen)
            for dataset, chosen in zip(self.datasets, indices)
        ]
        cohort = VectorizedCohort(models, datasets, rngs)
        histories = cohort.train(self.config)
        residuals = self.residuals if self.residuals else [None] * k
        results: List[TrainResult] = []
        for index in range(k):
            basis = (
                self.member_states[index] if self.member_states else self.model_state
            )
            state, update, update_nbytes, new_residual = encode_trained_state(
                self.codec,
                models[index].state_dict(),
                basis,
                residuals[index],
            )
            results.append(
                TrainResult(
                    task_id=self.task_ids[index],
                    state=state,
                    history=histories[index],
                    rng_state=capture_rng(rngs[index]),
                    update=update,
                    update_nbytes=update_nbytes,
                    residual=new_residual,
                )
            )
        return results

    def split(self, n_chunks: int) -> List["VectorizedTrainTask"]:
        """Contiguous stack chunks (:func:`split_stack`); the pool's
        version-addressed cache dedupes the shared basis per worker."""
        fields = ("datasets", "rng_states", "indices", "residuals", "member_states")
        return split_stack(self, n_chunks, fields)


def stack_fallback_reason(
    configs: Sequence[TrainConfig],
    sizes: Sequence[int],
    datasets: Sequence[ArrayDataset],
    arch_reason: Optional[str],
    ragged_reason: Optional[str],
    forget_sizes: Sequence[int] = (),
) -> Optional[str]:
    """Why these members cannot train as one stack (``None`` = they can).

    The one gate behind every fuser.  ``configs`` and ``sizes`` are the
    members' train configs and active dataset sizes (the sizes set the
    step count); ``datasets`` every dataset a step stacks batches of;
    ``arch_reason`` the cached :func:`repro.nn.vmap.stackable_reason`
    probe of the shared architecture and ``ragged_reason`` the cached
    :func:`repro.nn.vmap.ragged_support_reason` probe — consulted only
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


def cohort_fallback_reason(
    tasks: Sequence[TrainTask],
    arch_reason: Optional[str],
    ragged_reason: Optional[str] = None,
) -> Optional[str]:
    """:func:`stack_fallback_reason` for the per-client
    :class:`~repro.runtime.task.TrainTask` batch a round would otherwise
    dispatch (the caller probes the factory once, not per round)."""
    return stack_fallback_reason(
        [task.config for task in tasks],
        [
            len(task.dataset) if task.indices is None else len(task.indices)
            for task in tasks
        ],
        [task.dataset for task in tasks],
        arch_reason,
        ragged_reason,
    )


_RAGGED_REASONS: dict = {}


def ragged_probe(model_factory: Callable[[], Module]) -> Optional[str]:
    """Cached :func:`~repro.nn.vmap.ragged_support_reason` per factory.

    Architecture is a property of the factory, so one probe model per
    distinct factory suffices (mirrors the simulation's stackability
    cache; keying by the factory object itself keeps it alive, so ids
    are never recycled).
    """
    if model_factory not in _RAGGED_REASONS:
        _RAGGED_REASONS[model_factory] = ragged_support_reason(model_factory())
    return _RAGGED_REASONS[model_factory]


def make_vectorized_task(
    tasks: Sequence[TrainTask],
    model_state: Optional[StateDict],
) -> VectorizedTrainTask:
    """Fuse an eligible cohort's per-client tasks into one vectorized task.

    ``model_state`` is the round's broadcast basis, carried once for the
    whole cohort — the caller passes the state it just broadcast (every
    member's ``task.model_state`` is a copy of it).
    """
    first = tasks[0]
    return VectorizedTrainTask(
        task_id=tuple(task.task_id for task in tasks),
        task_ids=[task.task_id for task in tasks],
        model_factory=first.model_factory,
        datasets=[task.dataset for task in tasks],
        config=first.config,
        rng_states=[task.rng_state for task in tasks],
        model_state=model_state,
        indices=[task.indices for task in tasks],
        codec=first.codec,
        model_version=first.model_version,
        residuals=[task.residual for task in tasks],
    )


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


class TrainTaskFuser:
    """Fuses stock :class:`~repro.runtime.task.TrainTask` cohorts."""

    kind = "train"

    def matches(self, task: Any) -> bool:
        return type(task) is TrainTask

    def model_factory(self, task: TrainTask) -> Callable[[], Module]:
        return task.model_factory

    def group_key(self, task: TrainTask) -> Any:
        return (task.codec, task.model_version)

    def fallback_reason(
        self, tasks: Sequence[TrainTask], arch_reason: Optional[str]
    ) -> Optional[str]:
        return cohort_fallback_reason(
            tasks, arch_reason, ragged_probe(tasks[0].model_factory)
        )

    def fuse(
        self,
        tasks: Sequence[TrainTask],
        shared_basis: Optional[StateDict] = None,
    ) -> VectorizedTrainTask:
        if shared_basis is not None:
            return make_vectorized_task(tasks, shared_basis)
        states = [task.model_state for task in tasks]
        first = states[0]
        if all(state is None for state in states):
            return make_vectorized_task(tasks, None)
        if all(state is first for state in states) or (
            all(state is not None for state in states)
            and tasks[0].model_version is not None
            and all(task.model_version == tasks[0].model_version for task in tasks)
        ):
            return make_vectorized_task(tasks, first)
        if all(state is not None for state in states) and all(
            _states_equal(state, first) for state in states[1:]
        ):
            # Post-broadcast cohorts carry equal-valued copies; load (and
            # encode against) the first — bit-identical to per-member.
            return make_vectorized_task(tasks, first)
        vtask = make_vectorized_task(tasks, None)
        vtask.member_states = list(states)
        return vtask


_FUSERS: List[Any] = [TrainTaskFuser()]


def register_fuser(fuser: Any) -> None:
    """Add a protocol task fuser (checked before the stock train fuser)."""
    _FUSERS.insert(0, fuser)


def find_fuser(task: Any) -> Optional[Any]:
    for fuser in _FUSERS:
        if fuser.matches(task):
            return fuser
    return None


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
    fused_members: int = 0
    chunk_counts: List[int] = field(default_factory=list)
    fallback_reasons: List[str] = field(default_factory=list)


def plan_cohort(
    tasks: Sequence[Any],
    arch_probe: Callable[[Callable[[], Module]], Optional[str]],
    workers: int,
    shared_basis: Optional[StateDict] = None,
) -> CohortPlan:
    """Group a task batch into fusable cohorts and stack-chunk each one.

    Tasks of the same kind and group key form a cohort; eligible cohorts
    (per their fuser's gate) fuse into one stacked unit split into
    ``min(members, workers)`` contiguous chunks, so vectorization and
    multi-worker backends compose.  Everything else dispatches as the
    original per-member task, with the distinct reasons recorded.
    ``arch_probe`` maps a model factory to its cached
    :func:`~repro.nn.vmap.stackable_reason` (None = stackable).
    """
    tasks = list(tasks)
    plan = CohortPlan(slots=[None] * len(tasks))
    groups: dict = {}
    order: List[Any] = []
    for index, task in enumerate(tasks):
        fuser = find_fuser(task)
        if fuser is None:
            reason = (
                f"no vectorized implementation for {type(task).__name__}"
            )
            if reason not in plan.fallback_reasons:
                plan.fallback_reasons.append(reason)
            continue
        key = (fuser.kind, fuser.group_key(task))
        if key not in groups:
            groups[key] = (fuser, [])
            order.append(key)
        groups[key][1].append(index)
    for key in order:
        fuser, indices = groups[key]
        group_tasks = [tasks[i] for i in indices]
        if len(group_tasks) < 2:
            reason: Optional[str] = "cohort has a single participant"
        else:
            reason = fuser.fallback_reason(
                group_tasks, arch_probe(fuser.model_factory(group_tasks[0]))
            )
        if reason is not None:
            if reason not in plan.fallback_reasons:
                plan.fallback_reasons.append(reason)
            continue
        fused = fuser.fuse(group_tasks, shared_basis)
        chunks = fused.split(workers)
        plan.fused_groups += 1
        plan.fused_members += len(group_tasks)
        plan.chunk_counts.append(len(chunks))
        member = 0
        for chunk in chunks:
            unit_index = len(plan.units)
            plan.units.append(chunk)
            for offset in range(len(chunk.task_ids)):
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


__all__ = [
    "CohortPlan",
    "TrainTaskFuser",
    "VectorizedCohort",
    "VectorizedTrainTask",
    "VmapUnsupported",
    "backend_worker_count",
    "cohort_fallback_reason",
    "find_fuser",
    "make_vectorized_task",
    "plan_cohort",
    "ragged_probe",
    "register_fuser",
    "scatter_results",
    "split_stack",
    "stack_fallback_reason",
]
