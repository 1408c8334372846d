"""SISA training — sharded, isolated, sliced, aggregated unlearning.

After Bourtoule et al., "Machine Unlearning", IEEE S&P 2021 (the paper's
reference [9]). The paper's own data-partition mechanism (Fig. 2–3,
Eq. 8–10) adopts SISA's *sharding* idea; this module implements the full
original method including the second level, **slicing**, which the paper
cites as SISA's "data sharding and slicing" but does not rebuild:

* the dataset is split into ``S`` disjoint shards, one constituent model
  per shard (isolation bounds each sample's influence to one model);
* each shard is further split into ``R`` slices; the shard model is
  trained *incrementally* — slice 1, then slices 1–2, then 1–3, … — with
  a checkpoint saved after every step;
* inference aggregates the constituent models (soft probability mean or
  hard majority vote);
* deleting a sample only retrains its shard, and only from the checkpoint
  taken *before* the earliest slice containing a deleted point — the
  slices before it are reused as-is.

The expected cost saving over retraining the shard from scratch is
``(R+1)/2 / R`` per deletion (a uniformly random slice is hit), on top of
the ``1/S`` saving from sharding.

Slice ``r`` of shard ``i`` always trains from one stream, keyed by
(seed, ``i``, ``r``) (:func:`~repro.runtime.task.stage_rng`), never from
a position left behind by earlier training.  So a deletion is exact: the
retrained shard is bit for bit the one a fit that never held the deleted
samples would have trained, whichever slice retraining resumes from.
Shard isolation is also an execution property: no shard ever reads
another shard's data, model or stream, so (re)training is submitted as
one :class:`~repro.runtime.ChainTask` per shard through a pluggable
:class:`~repro.runtime.Backend` (``backend=`` on the constructor —
``"serial"`` default, ``"pool"``, ``"cluster"``), and a deletion touching
several shards retrains them concurrently with bit-identical results.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.serialization import load_state_dict, save_state_dict

from ..data.dataset import ArrayDataset, sample_indices
from ..federated.state_math import StateDict
from ..federated.vectorized import (
    VectorizeStats,
    backend_worker_count,
    plan_cohort,
    scatter_results,
)
from ..nn.module import Module
from ..runtime import BackendLike, get_backend
from ..runtime.task import ChainResult, ChainStage, ChainTask
from ..training.config import TrainConfig
from ..training.evaluation import predict_proba
from .journal import fsync_path, replace_durably

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SisaConfig:
    """Shape and training knobs of a SISA ensemble."""

    num_shards: int = 3
    num_slices: int = 4
    epochs_per_slice: int = 1
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    aggregation: str = "soft"  # "soft" = mean probs, "hard" = majority vote

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.num_slices < 1:
            raise ValueError(f"num_slices must be >= 1, got {self.num_slices}")
        if self.epochs_per_slice < 1:
            raise ValueError(
                f"epochs_per_slice must be >= 1, got {self.epochs_per_slice}"
            )
        if self.aggregation not in ("soft", "hard"):
            raise ValueError(
                f"aggregation must be 'soft' or 'hard', got {self.aggregation!r}"
            )
        self.train_config()  # TrainConfig checks the training knobs

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            epochs=self.epochs_per_slice,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
        )


@dataclass
class SisaDeletionReport:
    """Cost accounting for one deletion request."""

    num_deleted: int
    shards_affected: List[int]
    slices_retrained: int
    slices_reused: int
    slice_steps_total: int

    @property
    def fraction_retrained(self) -> float:
        """Retrained share of all slice steps — lower is cheaper."""
        if self.slice_steps_total == 0:
            return 0.0
        return self.slices_retrained / self.slice_steps_total


@dataclass
class PendingDeletion:
    """A begun-but-unfinished deletion window (see
    :meth:`SisaEnsemble.delete_begin`): the logically-deleted indices, the
    earliest affected slice per shard and the retrain chains to execute.
    """

    indices: np.ndarray
    first_affected: Dict[int, int]
    tasks: List[ChainTask]

    @property
    def num_chains(self) -> int:
        return len(self.tasks)


@dataclass
class _Shard:
    """One constituent: its slice index sets and per-slice checkpoints."""

    index: int
    # slice_indices[r] holds *global* dataset indices assigned to slice r.
    slice_indices: List[np.ndarray]
    model: Optional[Module] = None
    # checkpoints[r] = state after the training step that added slice r.
    checkpoints: Dict[int, StateDict] = field(default_factory=dict)


class SisaEnsemble:
    """A trained SISA ensemble over one dataset, supporting deletion.

    Parameters
    ----------
    model_factory:
        Zero-argument callable producing a fresh constituent model.
    dataset:
        The full training dataset. The ensemble keeps per-slice *global
        index* sets into it, so deletion requests use global indices.
    config:
        Shard/slice shape and per-step training hyper-parameters.
    seed:
        Controls the random shard assignment and the training streams
        (slice ``r`` of shard ``i`` shuffles from the stream keyed by
        (seed, ``i``, ``r``), so shard work is order-independent and a
        retrained slice shuffles as it first did).
    backend:
        Execution backend for shard (re)training — ``None``/``"serial"``
        (default), ``"pool"``, ``"cluster"``, or a
        :class:`~repro.runtime.Backend` instance.
    vectorize:
        Opt in to stage-lockstep chain vectorization: eligible shard
        chains fuse into one :class:`~repro.runtime.task.StackedTask`
        per batch (stack-chunked across the backend's workers, each
        chunk stepping its chains' slices in lockstep), bit-identical to
        the per-shard path.  Ineligible batches fall back per shard
        with the reason recorded (:meth:`vectorize_report`).
    """

    def __init__(
        self,
        model_factory: Callable[[], Module],
        dataset: ArrayDataset,
        config: SisaConfig = SisaConfig(),
        seed: int = 0,
        backend: BackendLike = None,
        vectorize: bool = False,
        _slices: Optional[List[List[np.ndarray]]] = None,
    ) -> None:
        total_parts = config.num_shards * config.num_slices
        if len(dataset) < total_parts:
            raise ValueError(
                f"dataset of {len(dataset)} samples cannot fill "
                f"{config.num_shards} shards x {config.num_slices} slices"
            )
        self.model_factory = model_factory
        self.dataset = dataset
        self.config = config
        self.seed = int(seed)
        self.backend = get_backend(backend)
        self.vectorize = bool(vectorize)
        self._vectorize_stats = VectorizeStats(logger)
        self._deleted: set = set()
        # Shards with a begun-but-unfinished deletion window.  Locking is
        # per shard, not per ensemble: windows touching disjoint shards
        # may retrain concurrently (their chains share nothing).
        self._pending_shards: set = set()
        # A saved ensemble (:meth:`_skeleton`) hands in its partition.
        self._shards = [
            _Shard(index=shard_index, slice_indices=parts)
            for shard_index, parts in enumerate(
                self._partition(seed) if _slices is None else _slices
            )
        ]
        self._rebuild_lookup()
        self._fitted = False

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _partition(self, seed: int) -> List[List[np.ndarray]]:
        """Each shard's slice index sets, drawn from ``seed``."""
        order = np.random.default_rng(seed).permutation(len(self.dataset))
        return [
            [np.sort(part) for part in np.array_split(shard, self.config.num_slices)]
            for shard in np.array_split(order, self.config.num_shards)
        ]

    def _rebuild_lookup(self) -> None:
        """Precompute global index → (shard, slice) for O(1) shard_of."""
        self._location: Dict[int, Tuple[int, int]] = {
            int(global_index): (shard.index, slice_index)
            for shard in self._shards
            for slice_index, part in enumerate(shard.slice_indices)
            for global_index in part
        }

    def shard_of(self, global_index: int) -> Tuple[int, int]:
        """(shard, slice) containing a global dataset index."""
        try:
            return self._location[int(global_index)]
        except KeyError:
            # Deleted indices keep their location, so a miss is a bad index.
            raise KeyError(
                f"index {global_index} out of range for a dataset of "
                f"{len(self.dataset)} samples"
            ) from None

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _active_indices(self, shard: _Shard, upto_slice: int) -> np.ndarray:
        """Global indices of slices 0..upto_slice, minus deleted points."""
        parts = [
            indices for indices in shard.slice_indices[: upto_slice + 1]
        ]
        merged = np.concatenate(parts) if parts else np.array([], dtype=np.int64)
        if self._deleted:
            keep = ~np.isin(merged, list(self._deleted))
            merged = merged[keep]
        return merged

    def _shard_chain_task(self, shard: _Shard, from_slice: int) -> ChainTask:
        """Package ``shard``'s incremental (re)training from ``from_slice``
        as a pure chain task: one stage per remaining slice step, resuming
        from the checkpoint after slice ``from_slice − 1`` when one exists.
        """
        stages = [
            # Empty active set (entire prefix deleted) → checkpoint-only
            # stage; the subset itself is materialised lazily in run().
            ChainStage(
                stage_id=slice_index,
                indices=self._active_indices(shard, slice_index),
            )
            for slice_index in range(from_slice, self.config.num_slices)
        ]
        return ChainTask(
            task_id=shard.index,
            model_factory=self.model_factory,
            dataset=self.dataset,
            stages=stages,
            config=self.config.train_config(),
            seed=self.seed,
            init_state=shard.checkpoints[from_slice - 1] if from_slice > 0 else None,
        )

    def _run_chains(self, tasks: Sequence[ChainTask]) -> List[ChainResult]:
        """Execute shard chains — one dispatch, stacked when eligible.

        The per-shard path is the default; with ``vectorize=True`` the
        batch goes through the simulation's own
        :func:`~repro.federated.vectorized.plan_cohort`: eligible chains
        (≥ 2, uniform config, stackable architecture) fuse into one
        stack chunked across the backend's workers, each worker running
        its chains' stages in lockstep
        (:meth:`ChainTask.run_stack`).  A *stage* whose members fail the
        data gate still trains them one by one; its reason comes back on
        the results and is tallied here, once per batch like the plan's.
        """
        tasks = list(tasks)
        if not self.vectorize or not tasks:
            return self.backend.run_tasks(tasks)
        plan = plan_cohort(tasks, backend_worker_count(self.backend))
        self._vectorize_stats.tally(plan)
        results = scatter_results(plan, self.backend.run_tasks(plan.units))
        for reason in dict.fromkeys(
            reason for result in results for reason in result.fallback_reasons
        ):
            self._vectorize_stats.record_fallback(reason)
        return results

    def vectorize_report(self) -> dict:
        """Vectorization telemetry: batches fused vs fallen back, recorded
        fallback reasons, and the stack-chunk fan-out tally (the keys of
        :meth:`~repro.federated.FederatedSimulation.vectorize_report`)."""
        return self._vectorize_stats.report(self.vectorize)

    def _absorb_chain_result(self, shard: _Shard, result: ChainResult) -> int:
        """Install a finished shard chain: checkpoints and model."""
        shard.checkpoints.update(result.checkpoints)
        model = self.model_factory()
        model.load_state_dict(result.final_state)
        shard.model = model
        return result.steps

    def fit(self) -> "SisaEnsemble":
        """Train every shard through all its slices (initial training).

        Shards are independent, so their chains run concurrently under a
        parallel backend.
        """
        tasks = []
        for shard in self._shards:
            # Drop any stale checkpoints and start clean.
            shard.checkpoints.clear()
            tasks.append(self._shard_chain_task(shard, from_slice=0))
        for shard, result in zip(self._shards, self._run_chains(tasks)):
            self._absorb_chain_result(shard, result)
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, global_indices: Sequence[int]) -> SisaDeletionReport:
        """Unlearn the given samples; retrain only what the checkpoints
        cannot cover. Raises if called before :meth:`fit`."""
        pending = self.delete_begin(global_indices)
        try:
            results = self._run_chains(pending.tasks)
        except Exception:
            # Unlock rather than wedge: the logical deletion stands (the
            # points are gone either way) but the affected shards carry
            # stale models until a retried delete/fit lands.
            self.abort_pending_deletion(pending)
            raise
        return self.delete_finish(pending, results)

    def delete_begin(self, global_indices: Sequence[int]) -> "PendingDeletion":
        """Phase 1 of a deletion: logical removal + retrain-chain tasks.

        Marks the indices deleted, invalidates the checkpoints the
        deletion poisons and builds one retrain :class:`ChainTask` per
        affected shard — **without executing anything**.  The non-blocking
        deletion service
        (:class:`~repro.unlearning.service.UnlearningService`)
        submits the returned tasks through ``backend.submit`` so they run
        concurrently with subsequent federation rounds, then calls
        :meth:`delete_finish` with the results; :meth:`delete` is the
        barriered begin → run → finish composition.

        Between begin and finish the affected shards' models are the
        pre-deletion ones (inference serves stale constituents until the
        retrain lands) and no further ``delete_begin`` may target those
        *shards* — overlapping windows on the same shard would race on
        the checkpoint invalidation.  Locking is per shard: windows whose
        affected shards are disjoint retrain concurrently (the service
        partitions requests accordingly), because a chain only ever reads
        its own shard's checkpoints and index sets.

        Indices go through :func:`~repro.data.dataset.sample_indices`:
        ``2.5``, ``True`` or ``"7"`` raise :class:`ValueError` rather than
        naming a sample the caller did not.
        """
        if not self._fitted:
            raise RuntimeError("call fit() before delete()")
        indices = sample_indices(global_indices)
        if indices.size == 0:
            raise ValueError("deletion request with no indices")
        for index in indices:
            if index in self._deleted:
                raise ValueError(f"index {int(index)} was already deleted")
            if index < 0 or index >= len(self.dataset):
                raise ValueError(f"index {int(index)} out of range")

        # Earliest affected slice per shard.
        first_affected: Dict[int, int] = {}
        for index in indices:
            shard_index, slice_index = self.shard_of(int(index))
            current = first_affected.get(shard_index)
            if current is None or slice_index < current:
                first_affected[shard_index] = slice_index

        locked = sorted(set(first_affected) & self._pending_shards)
        if locked:
            raise RuntimeError(
                f"a deletion window is already in flight for shard(s) "
                f"{locked}; finish it with delete_finish() before beginning "
                "another on the same shards"
            )

        self._deleted.update(int(i) for i in indices)

        # One retrain chain per affected shard; chains are independent, so
        # a multi-shard deletion retrains its shards concurrently under a
        # parallel backend.
        tasks = []
        for shard_index, from_slice in sorted(first_affected.items()):
            shard = self._shards[shard_index]
            # Resume from the latest checkpoint that still exists at or
            # before the affected slice.  Normally that is the checkpoint
            # just before it; after an aborted window (chains failed, see
            # :meth:`abort_pending_deletion`) earlier checkpoints may be
            # gone too, and retraining from further back is always valid —
            # just more replay.
            while from_slice > 0 and (from_slice - 1) not in shard.checkpoints:
                from_slice -= 1
            first_affected[shard_index] = from_slice
            # Invalidate checkpoints from the affected slice onward.
            for stale in range(from_slice, self.config.num_slices):
                shard.checkpoints.pop(stale, None)
            tasks.append(self._shard_chain_task(shard, from_slice))
        self._pending_shards.update(first_affected)
        return PendingDeletion(
            indices=indices, first_affected=dict(first_affected), tasks=tasks
        )

    @property
    def pending_shards(self) -> frozenset:
        """Shards locked by begun-but-unfinished deletion windows.  The
        :class:`~repro.unlearning.service.UnlearningService` reads
        this to defer requests whose indices map to a busy shard while
        submitting disjoint-shard windows concurrently."""
        return frozenset(self._pending_shards)

    def abort_pending_deletion(self, pending: "PendingDeletion") -> None:
        """Unlock a begun window whose chains failed (e.g. a pool batch
        exhausting its worker-death retries).

        Only that window's shards unlock; other in-flight windows keep
        their locks.  The logical removal already happened at
        :meth:`delete_begin` — the indices stay deleted and their
        checkpoints stay invalidated — so the affected shards serve
        **stale** models until their chains are re-run (resubmit via
        :meth:`delete_begin` on new indices, or a full :meth:`fit`).
        This trades a visible staleness window for not permanently
        deadlocking every future deletion behind one transient backend
        error.
        """
        self._pending_shards -= set(pending.first_affected)

    def delete_finish(
        self, pending: "PendingDeletion", results: Sequence[ChainResult]
    ) -> SisaDeletionReport:
        """Phase 2: absorb the retrain-chain results begun by
        :meth:`delete_begin` and report the window's cost."""
        missing = set(pending.first_affected) - self._pending_shards
        if missing:
            raise RuntimeError(
                f"no deletion window in flight for shard(s) {sorted(missing)}"
            )
        if len(results) != len(pending.tasks):
            raise ValueError(
                f"{len(pending.tasks)} chain(s) begun but {len(results)} "
                "result(s) supplied"
            )
        retrained = 0
        for task, result in zip(pending.tasks, results):
            retrained += self._absorb_chain_result(self._shards[task.task_id], result)
        self._pending_shards -= set(pending.first_affected)

        total_steps = self.config.num_shards * self.config.num_slices
        reused = total_steps - sum(
            self.config.num_slices - start
            for start in pending.first_affected.values()
        )
        return SisaDeletionReport(
            num_deleted=int(pending.indices.size),
            shards_affected=sorted(pending.first_affected),
            slices_retrained=retrained,
            slices_reused=reused,
            slice_steps_total=total_steps,
        )

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_proba(self, images: np.ndarray) -> np.ndarray:
        """Aggregate constituent predictions into ``(N, num_classes)``."""
        if not self._fitted:
            raise RuntimeError("call fit() before predicting")
        per_shard = [
            predict_proba(shard.model, images) for shard in self._shards
        ]
        if self.config.aggregation == "soft":
            return np.mean(per_shard, axis=0)
        # Hard voting: one-hot each constituent's argmax, then normalise.
        votes = np.zeros_like(per_shard[0])
        for probs in per_shard:
            winners = probs.argmax(axis=1)
            votes[np.arange(len(winners)), winners] += 1.0
        return votes / votes.sum(axis=1, keepdims=True)

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self.predict_proba(images).argmax(axis=1)

    def evaluate(self, dataset: ArrayDataset) -> float:
        """Ensemble accuracy on ``dataset``."""
        return float((self.predict(dataset.images) == dataset.labels).mean())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    # SISA's economics depend on the checkpoints outliving the process: a
    # service restart must not silently degrade every future deletion to a
    # full-shard retrain. save()/load() round-trip the entire ensemble —
    # seed, partition, deletions, and every slice checkpoint.

    def save(self, directory: str) -> None:
        """Persist seed, partition, deletion log and all checkpoints.

        Each slice checkpoint is one flat file,
        ``shard<i>_slice<r>.ckpt`` (:mod:`repro.nn.serialization`); the
        same ensemble saves to the same bytes.  ``manifest.json`` is
        written last, through a temp file and :func:`os.replace`, so a
        save that dies part way leaves no manifest and is taken again
        rather than read.  Every checkpoint, the directory and the temp
        manifest are fsynced before the replace, and the directory again
        after it, so a manifest on disk never names checkpoint bytes that
        did not reach it.
        """
        if not self._fitted:
            raise RuntimeError("call fit() before save()")
        os.makedirs(directory, exist_ok=True)
        manifest = {
            "config": {
                "num_shards": self.config.num_shards,
                "num_slices": self.config.num_slices,
                "epochs_per_slice": self.config.epochs_per_slice,
                "batch_size": self.config.batch_size,
                "learning_rate": self.config.learning_rate,
                "momentum": self.config.momentum,
                "aggregation": self.config.aggregation,
            },
            "seed": self.seed,
            "deleted": sorted(self._deleted),
            "shards": [
                {
                    "index": shard.index,
                    "slice_indices": [part.tolist() for part in shard.slice_indices],
                    "checkpoints": sorted(shard.checkpoints),
                }
                for shard in self._shards
            ],
        }
        for shard in self._shards:
            for slice_index, state in shard.checkpoints.items():
                checkpoint = os.path.join(
                    directory, f"shard{shard.index}_slice{slice_index}.ckpt"
                )
                save_state_dict(state, checkpoint)
                fsync_path(checkpoint)
        fsync_path(directory)
        # The manifest lands last and atomically: a directory holding one
        # holds a complete save.
        path = os.path.join(directory, "manifest.json")
        replace_durably(path, json.dumps(manifest), path + ".tmp")

    @classmethod
    def load(
        cls,
        directory: str,
        model_factory: Callable[[], Module],
        dataset: ArrayDataset,
        backend: BackendLike = None,
    ) -> "SisaEnsemble":
        """Rebuild an ensemble saved with :meth:`save`.

        ``dataset`` must be the same dataset the ensemble was fitted on
        (the manifest stores indices into it, not the data itself —
        matching SISA's deployment model where the data store is separate).
        """
        ensemble, manifest = cls._skeleton(directory, model_factory, dataset, backend=backend)
        for shard, entry in zip(ensemble._shards, manifest["shards"]):
            ensemble._read_shard(shard, dict.fromkeys(entry["checkpoints"], directory))
        return ensemble

    @classmethod
    def _skeleton(
        cls,
        directory: str,
        model_factory: Callable[[], Module],
        dataset: ArrayDataset,
        backend: BackendLike = None,
    ) -> Tuple["SisaEnsemble", Dict]:
        """A saved ensemble before any shard is read, and its manifest.

        The skeleton has the save's config, seed, partition, shard lookup
        and deleted set; every shard still needs :meth:`_read_shard`.
        A manifest without a seed raises :class:`ValueError`.
        :meth:`load` reads each from the save itself, while
        :meth:`~repro.unlearning.service.UnlearningService.recover` reads
        each from wherever its newest state is.
        """
        with open(os.path.join(directory, "manifest.json")) as handle:
            manifest = json.load(handle)
        if "seed" not in manifest:
            raise ValueError(f"{directory} has a manifest without a seed")
        ensemble = cls(
            model_factory,
            dataset,
            SisaConfig(**manifest["config"]),
            seed=manifest["seed"],
            backend=backend,
            _slices=[
                [np.asarray(part, dtype=np.int64) for part in entry["slice_indices"]]
                for entry in manifest["shards"]
            ],
        )
        ensemble._deleted = set(manifest["deleted"])
        ensemble._fitted = True
        return ensemble, manifest

    def _read_shard(
        self,
        shard: _Shard,
        sources: Dict[int, str],
        model_source: Optional[str] = None,
    ) -> None:
        """Install one shard's saved state: each checkpoint ``r`` in
        ``sources`` (``shard<i>_slice<r>.ckpt`` under ``sources[r]``)
        and a model holding its final checkpoint.  A
        failed deletion window drops a shard's checkpoints from its
        first affected slice on and leaves its model as it was;
        ``model_source`` then names the directory holding the final
        checkpoint that model came from.  A file that is not a
        well-formed checkpoint raises :class:`ValueError`."""
        shard.checkpoints = {
            slice_index: load_state_dict(
                os.path.join(directory, f"shard{shard.index}_slice{slice_index}.ckpt")
            )
            for slice_index, directory in sorted(sources.items())
        }
        last = self.config.num_slices - 1
        final = shard.checkpoints.get(last)
        if final is None and model_source is not None:
            final = load_state_dict(
                os.path.join(model_source, f"shard{shard.index}_slice{last}.ckpt")
            )
        if final is None:
            raise ValueError(
                f"shard {shard.index} is missing its final checkpoint; "
                "the save is incomplete"
            )
        model = self.model_factory()
        model.load_state_dict(final)
        shard.model = model

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_deleted(self) -> int:
        return len(self._deleted)

    @property
    def deleted_indices(self) -> frozenset:
        """Global indices unlearned so far.  Public so batching layers
        (:meth:`~repro.unlearning.deletion_manager.DeletionManager.maybe_execute_batched`,
        :class:`~repro.unlearning.service.UnlearningService`)
        can drop idempotent re-requests instead of tripping
        :meth:`delete`'s already-deleted guard."""
        return frozenset(self._deleted)

    def shard_sizes(self) -> List[int]:
        """Live (post-deletion) sample count per shard."""
        return [
            len(self._active_indices(shard, self.config.num_slices - 1))
            for shard in self._shards
        ]
