"""Federated-learning client: local data, local model, local training."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..data.dataset import ArrayDataset, sample_indices
from ..nn.module import Module
from ..runtime.task import TrainResult, TrainTask, capture_rng
from ..training.config import TrainConfig, TrainHistory
from ..training.trainer import train
from .aggregation import ClientUpdate
from .state_math import StateDict


class Client:
    """One FL participant holding a private local dataset.

    The client never ships raw data — only model states move between the
    client and the server, matching the paper's threat model (a server that
    must not see samples or per-step gradients).
    """

    def __init__(
        self,
        client_id: int,
        dataset: ArrayDataset,
        model: Module,
        rng: np.random.Generator,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has an empty dataset")
        self.client_id = client_id
        self.dataset = dataset
        self.model = model
        self.rng = rng
        self.forget_indices: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Server interaction
    # ------------------------------------------------------------------
    def receive_global(self, state: StateDict) -> None:
        """Install the server's current global parameters."""
        self.model.load_state_dict(state)

    def upload(self) -> ClientUpdate:
        """Package the local model for aggregation."""
        return ClientUpdate(
            state=self.model.state_dict(),
            num_samples=self.active_size,
            client_id=self.client_id,
        )

    # ------------------------------------------------------------------
    # Deletion requests
    # ------------------------------------------------------------------
    def request_deletion(self, indices: np.ndarray) -> None:
        """Mark local samples (by local index) for removal — D_f^c.

        Indices must be whole numbers (:func:`~repro.data.dataset.sample_indices`).
        """
        indices = sample_indices(indices)
        if indices.size == 0:
            raise ValueError("deletion request with no indices")
        if indices.min() < 0 or indices.max() >= len(self.dataset):
            raise ValueError("deletion indices out of range")
        if indices.size >= len(self.dataset):
            raise ValueError("cannot delete the client's entire dataset")
        self.forget_indices = indices

    @property
    def has_pending_deletion(self) -> bool:
        return self.forget_indices is not None

    @property
    def retain_indices(self) -> Optional[np.ndarray]:
        """Index selection of D_r^c into ``dataset`` (``None`` when
        nothing is pending, i.e. everything is retained)."""
        if self.forget_indices is None:
            return None
        return self.dataset.keep_indices(self.forget_indices)

    @property
    def active_size(self) -> int:
        """``len(active_dataset)`` without materialising the subset."""
        if self.forget_indices is None:
            return len(self.dataset)
        return len(self.dataset) - len(self.forget_indices)

    @property
    def active_dataset(self) -> ArrayDataset:
        """The data the client may legally train on right now: D_r^c,
        the whole dataset when nothing is pending."""
        if self.forget_indices is None:
            return self.dataset
        return self.dataset.remove(self.forget_indices)

    def finalize_deletion(self) -> None:
        """Physically drop the forget set after unlearning completed.

        A shared-memory dataset stays shared: the survivors are re-housed
        in a fresh block, so later rounds keep their zero-copy fan-out
        instead of silently regressing to by-value pickling.
        """
        if self.forget_indices is None:
            return
        from ..data.dataset import SharedArrayDataset

        survivors = self.active_dataset
        if isinstance(self.dataset, SharedArrayDataset):
            survivors = survivors.share()
        self.dataset = survivors
        self.forget_indices = None

    # ------------------------------------------------------------------
    # Local work
    # ------------------------------------------------------------------
    def local_train(self, config: TrainConfig) -> TrainHistory:
        """Algorithm 1 ``LocalTraining``: plain SGD on the active data."""
        return train(self.model, self.active_dataset, config, self.rng)

    # ------------------------------------------------------------------
    # Runtime task emission (see repro.runtime)
    # ------------------------------------------------------------------
    def make_train_task(
        self,
        config: TrainConfig,
        model_factory: Callable[[], Module],
        codec: str = "raw",
        model_version: Optional[str] = None,
    ) -> TrainTask:
        """Package this client's next local-training run as a pure task.

        The task snapshots the client's model state and exact RNG position,
        so running it on any backend reproduces :meth:`local_train` bit for
        bit — provided :meth:`absorb_train_result` is called afterwards to
        advance this client past the work the task performed.

        While a deletion is pending, the task carries the full local
        dataset plus the retain-*indices* rather than a materialised
        retain copy: the executing worker slices out exactly D_r^c, so
        training matches :attr:`active_dataset` array-for-array, but the
        parent never pays a per-task copy (and a shared-memory dataset
        ships as a handle).

        ``codec`` selects the :mod:`~repro.runtime.codec` update codec
        the task's return travels under (``"raw"`` keeps the historical
        dense-state return, bit for bit); the task's ``model_state``
        doubles as the encode basis.  ``model_version`` may carry the
        precomputed content hash of the state this client just received
        — valid exactly because the model is untouched between
        :meth:`receive_global` and this snapshot.
        """
        return TrainTask(
            task_id=self.client_id,
            model_factory=model_factory,
            dataset=self.dataset,
            config=config,
            rng_state=capture_rng(self.rng),
            model_state=self.model.state_dict(),
            indices=self.retain_indices,
            codec=codec,
            model_version=model_version,
        )

    def absorb_train_result(self, result: TrainResult) -> TrainHistory:
        """Install a finished task's model state and advanced RNG position.

        A codec-encoded result is decoded against the client's own
        current model: it is untouched between :meth:`make_train_task`
        and the absorb, so it still holds exactly what the task trained
        from.
        """
        if result.task_id != self.client_id:
            raise ValueError(
                f"client {self.client_id} cannot absorb result for task "
                f"{result.task_id!r}"
            )
        state = result.state
        if state is None:
            state = result.resolve_state(self.model.state_dict())
        self.model.load_state_dict(state)
        self.rng.bit_generator.state = result.rng_state
        return result.history
