"""Data-partition optimisation: shard models and checkpoint arithmetic.

Implements the paper's second optimisation mechanism (Fig. 2–3, Eq. 8–10):
a client splits its local data into τ shards, trains one model per shard,
and publishes the size-weighted aggregate

    ω_c = Σ_i (|D_i| / |D|) · ω_{c,i}                      (Eq. 8)

On a deletion request only the shards containing removed samples must be
retrained. Training resumes from the *checkpoint* built out of the
untouched shards

    ω_c = Σ_{j≠i} (|D_j| / |D|) · ω_{c,j}                  (Eq. 9)

and after retraining the affected shard's own weights are recovered by
subtracting the untouched shards back out

    ω_{c,i} = (|D|/|D_i|) · (ω_c − Σ_{j≠i} (|D_j|/|D|) ω_{c,j})   (Eq. 10)

so the per-shard decomposition stays consistent for future deletions.

Shard training goes through the pluggable execution runtime
(:mod:`repro.runtime`): each shard trains from its own stored state and
its own child RNG stream, so :meth:`ShardedClientTrainer.train_all` and
multi-shard deletions fan out across workers under a parallel backend
(``backend=`` on the constructor) with bit-identical results. (The
per-shard streams — seeded from ``num_shards`` draws off the caller's
``rng`` at construction — replace the single shared generator the
pre-runtime version advanced shard by shard, so weights for a given
seed differ from that version but are identical across backends.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..data.dataset import ArrayDataset, SharedArrayDataset, sample_indices
from ..data.partition import partition_shards
from ..federated import state_math
from ..federated.state_math import StateDict
from ..nn.module import Module
from ..runtime import BackendLike, get_backend
from ..runtime.task import RngState, TrainTask
from ..training.config import TrainConfig


@dataclass
class DeletionReport:
    """What a shard-level deletion touched and what it cost."""

    affected_shards: List[int]
    removed_per_shard: Dict[int, int]
    retrained_shards: List[int]
    dropped_shards: List[int]
    wall_seconds: float = 0.0


class ShardedClientTrainer:
    """Per-shard models over one client's local dataset.

    Parameters
    ----------
    dataset:
        The client's full local dataset.
    num_shards:
        τ — how many shards to split into. τ = 1 reduces to plain
        (unsharded) local training.
    model_factory:
        Builds one fresh model; called once per shard.
    rng:
        Drives the shard split and seeds the per-shard training streams
        (each shard shuffles from its own child generator, which keeps
        shard training order-independent and thus parallelisable).
    backend:
        Execution backend for shard training — ``None``/``"serial"``
        (default), ``"pool"``, ``"cluster"``, or a
        :class:`~repro.runtime.Backend` instance.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        num_shards: int,
        model_factory: Callable[[], Module],
        rng: np.random.Generator,
        backend: BackendLike = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.dataset = dataset
        self.num_shards = num_shards
        self.model_factory = model_factory
        self.rng = rng
        self.backend = get_backend(backend)
        self.shard_indices: List[np.ndarray] = partition_shards(len(dataset), num_shards, rng)
        self.shard_states: List[StateDict] = []
        self.shard_rng_states: List[RngState] = []
        child_seeds = rng.integers(0, 2**63 - 1, size=num_shards)
        for shard in range(num_shards):
            fresh = model_factory()
            self.shard_states.append(fresh.state_dict())
            self.shard_rng_states.append(
                np.random.default_rng(int(child_seeds[shard])).bit_generator.state
            )

    # ------------------------------------------------------------------
    # Size bookkeeping
    # ------------------------------------------------------------------
    def shard_sizes(self) -> np.ndarray:
        return np.array([len(indices) for indices in self.shard_indices])

    def total_size(self) -> int:
        return int(self.shard_sizes().sum())

    def shard_dataset(self, shard: int) -> ArrayDataset:
        return self.dataset.subset(self.shard_indices[shard])

    # ------------------------------------------------------------------
    # Training and aggregation
    # ------------------------------------------------------------------
    def _shard_task(self, shard: int, config: TrainConfig) -> TrainTask:
        """One shard's next training pass as a pure runtime task.

        With a shared-memory dataset the task carries the full dataset
        handle plus this shard's index selection — the executing worker
        materialises the slice (identical to :meth:`shard_dataset`), the
        parent holds the data once however many shards fan out, and the
        pickled payload is O(indices).  A private-memory dataset is
        sliced parent-side instead: shipping the *full* arrays with every
        shard task would multiply pickle traffic K-fold under a pooling
        backend.  Either way the worker trains on identical arrays.
        """
        if isinstance(self.dataset, SharedArrayDataset):
            dataset, indices = self.dataset, self.shard_indices[shard]
        else:
            dataset, indices = self.shard_dataset(shard), None
        return TrainTask(
            task_id=shard,
            model_factory=self.model_factory,
            dataset=dataset,
            config=config,
            rng_state=self.shard_rng_states[shard],
            model_state=self.shard_states[shard],
            indices=indices,
        )

    def _train_shards(self, shards: List[int], config: TrainConfig) -> None:
        """Fan the given shards' training passes out through the backend."""
        tasks = [self._shard_task(shard, config) for shard in shards]
        for task, result in zip(tasks, self.backend.run_tasks(tasks)):
            self.shard_states[task.task_id] = result.state
            self.shard_rng_states[task.task_id] = result.rng_state

    def train_shard(self, shard: int, config: TrainConfig) -> None:
        """Continue training shard ``shard`` from its stored state."""
        self._train_shards([shard], config)

    def train_all(self, config: TrainConfig) -> None:
        """One local training pass over every shard (parallel across
        shards under a parallel backend)."""
        self._train_shards(list(range(self.num_shards)), config)

    def aggregate(self, exclude: Optional[int] = None) -> StateDict:
        """Eq. 8 (or Eq. 9 when ``exclude`` names a shard to leave out)."""
        total = self.total_size()
        if exclude is not None and self.num_shards == 1:
            raise ValueError("cannot exclude the only shard")
        states, weights = [], []
        for shard in range(self.num_shards):
            if shard == exclude:
                continue
            states.append(self.shard_states[shard])
            weights.append(len(self.shard_indices[shard]) / total)
        return state_math.weighted_sum(states, weights)

    def local_state(self) -> StateDict:
        """The client's published local model ω_c (Eq. 8)."""
        return self.aggregate()

    def local_model(self) -> Module:
        model = self.model_factory()
        model.load_state_dict(self.local_state())
        return model

    def recover_shard_state(self, shard: int, combined: StateDict) -> StateDict:
        """Eq. 10: extract shard ``shard``'s weights from a combined model."""
        total = self.total_size()
        shard_size = len(self.shard_indices[shard])
        if shard_size == 0:
            raise ValueError(f"shard {shard} is empty")
        # combined = (|D_i|/|D|)·ω_i + Σ_{j≠i} (|D_j|/|D|)·ω_j and
        # aggregate(exclude) is exactly the second term, so the residual
        # scaled by |D|/|D_i| is ω_i.
        others = self.aggregate(exclude=shard)
        residual = state_math.subtract(combined, others)
        return state_math.scale(residual, total / shard_size)

    # ------------------------------------------------------------------
    # Deletion handling (Fig. 3)
    # ------------------------------------------------------------------
    def locate(self, local_indices: np.ndarray) -> Dict[int, np.ndarray]:
        """Map dataset-level indices to ``{shard: indices within it}``.
        Indices must be whole numbers
        (:func:`~repro.data.dataset.sample_indices`)."""
        local_indices = sample_indices(local_indices)
        if local_indices.size and (
            local_indices.min() < 0 or local_indices.max() >= len(self.dataset)
        ):
            raise ValueError("deletion indices out of range")
        hits: Dict[int, np.ndarray] = {}
        for shard, indices in enumerate(self.shard_indices):
            mask = np.isin(indices, local_indices)
            if mask.any():
                hits[shard] = indices[mask]
        return hits

    def delete(
        self,
        local_indices: np.ndarray,
        config: TrainConfig,
        reinitialize_affected: bool = False,
    ) -> DeletionReport:
        """Remove samples and retrain only the shards that contained them.

        Fully-emptied shards are dropped. Partially-affected shards are
        retrained on their remaining data (Fig. 3), starting from their
        previous state (warm start) or from scratch if
        ``reinitialize_affected``. The per-shard decomposition is kept
        consistent with Eq. 9/10: after retraining each affected shard, the
        shard's stored state is recovered from the combined local model.
        """
        start = time.perf_counter()
        hits = self.locate(local_indices)
        affected = sorted(hits)
        removed_per_shard = {shard: int(len(idx)) for shard, idx in hits.items()}

        dropped: List[int] = []
        retrained: List[int] = []
        for shard in affected:
            keep_mask = ~np.isin(self.shard_indices[shard], hits[shard])
            remaining = self.shard_indices[shard][keep_mask]
            if remaining.size == 0:
                dropped.append(shard)
            self.shard_indices[shard] = remaining

        # Physically drop emptied shards (in reverse to keep indices valid).
        for shard in sorted(dropped, reverse=True):
            del self.shard_indices[shard]
            del self.shard_states[shard]
            del self.shard_rng_states[shard]
        self.num_shards = len(self.shard_indices)
        if self.num_shards == 0:
            raise ValueError("deletion emptied every shard")

        # Retrain the partially-affected shards on their remaining data.
        surviving_affected = [s for s in affected if s not in dropped]
        # Account for index shifts caused by dropped shards.
        shift = {old: old - sum(1 for d in dropped if d < old) for old in surviving_affected}
        # Fix every retrain's starting state before any retraining runs,
        # so affected shards are independent work units (retrainable
        # concurrently, and identical under every backend).
        if reinitialize_affected:
            # Warm start per Eq. 9: begin from the checkpoint of untouched
            # shards (all starts computed from the same pre-retrain
            # snapshot), falling back to a fresh initialisation when there
            # is no other shard to build the checkpoint from.
            starts = {
                shift[old]: (
                    self.aggregate(exclude=shift[old])
                    if self.num_shards > 1
                    else self.model_factory().state_dict()
                )
                for old in surviving_affected
            }
            for shard, state in starts.items():
                self.shard_states[shard] = state
        self._train_shards([shift[old] for old in surviving_affected], config)
        retrained.extend(surviving_affected)

        return DeletionReport(
            affected_shards=affected,
            removed_per_shard=removed_per_shard,
            retrained_shards=retrained,
            dropped_shards=dropped,
            wall_seconds=time.perf_counter() - start,
        )
