"""Independent reference for deletion-service recovery.

``UnlearningService.recover`` reads each shard once, from the sidecar of
the newest certified window that touched it or from the base save, and
takes the deleted set from the replayed window plans.  This is recovery
as it stood before that change: an eager ``SisaEnsemble.load`` of every
base checkpoint, then every certified window's sidecar reinstalled in
certification order, its journaled plan supplying the deleted indices.
The code is verbatim apart from naming: ``SisaEnsemble.load`` is the
function :func:`reference_load` (``cls`` spelled ``SisaEnsemble``), and
``recover`` calls it instead of the library's ``load``.  Two changes
follow the sidecar layout: a sidecar holds only the slices its window
rewrote, so each is overlaid onto the shard's checkpoints instead of
replacing the whole set; and it holds checkpoints only, so the window's
indices and first slices come from its replayed plan.  No stream
position is restored anywhere: every slice trains from the stream keyed
by the manifest's seed.
``tests/unlearning/test_recovery.py`` compares the library against it
bit for bit over generated histories.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.module import Module
from repro.nn.serialization import load_state_dict
from repro.runtime import BackendLike
from repro.unlearning.deletion_manager import DeletionPolicy, RequestState
from repro.unlearning.journal import replay
from repro.unlearning.service import UnlearningService
from repro.unlearning.sisa import SisaConfig, SisaEnsemble, _Shard


def reference_load(
    directory: str,
    model_factory: Callable[[], Module],
    dataset: ArrayDataset,
    backend: BackendLike = None,
) -> SisaEnsemble:
    """Rebuild an ensemble saved with :meth:`save`.

    ``dataset`` must be the same dataset the ensemble was fitted on
    (the manifest stores indices into it, not the data itself —
    matching SISA's deployment model where the data store is separate).
    """
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    config = SisaConfig(**manifest["config"])
    ensemble = SisaEnsemble(
        model_factory, dataset, config, seed=manifest["seed"], backend=backend
    )
    ensemble._deleted = set(manifest["deleted"])
    ensemble._shards = []
    for entry in manifest["shards"]:
        shard = _Shard(
            index=entry["index"],
            slice_indices=[
                np.asarray(part, dtype=np.int64)
                for part in entry["slice_indices"]
            ],
        )
        for slice_index in entry["checkpoints"]:
            shard.checkpoints[slice_index] = load_state_dict(
                os.path.join(
                    directory, f"shard{shard.index}_slice{slice_index}.ckpt"
                )
            )
        last = config.num_slices - 1
        if last not in shard.checkpoints:
            raise ValueError(
                f"shard {shard.index} is missing its final checkpoint; "
                "the save is incomplete"
            )
        model = model_factory()
        model.load_state_dict(shard.checkpoints[last])
        shard.model = model
        ensemble._shards.append(shard)
    ensemble._rebuild_lookup()
    ensemble._fitted = True
    return ensemble


class ReferenceRecovery(UnlearningService):
    """The service with the sidecar-replaying recovery."""

    def _install_sidecar(self, window_id: int) -> None:
        """Reinstall one certified window's sidecar onto the ensemble."""
        ensemble = self.ensemble
        window_dir = self._window_dir(window_id)
        plan = self._windows[window_id]
        ensemble._deleted.update(int(i) for i in plan.indices)
        for shard_key, start in plan.first_slices.items():
            shard = ensemble._shards[int(shard_key)]
            shard.checkpoints.update(
                {
                    slice_index: load_state_dict(
                        os.path.join(
                            window_dir, f"shard{shard_key}_slice{slice_index}.ckpt"
                        )
                    )
                    for slice_index in range(start, ensemble.config.num_slices)
                }
            )
            model = ensemble.model_factory()
            model.load_state_dict(
                shard.checkpoints[ensemble.config.num_slices - 1]
            )
            shard.model = model

    @classmethod
    def recover(
        cls,
        directory: str,
        model_factory: Callable[[], Module],
        dataset: ArrayDataset,
        policy: Optional[DeletionPolicy] = None,
        backend: BackendLike = None,
        task_filter: Optional[Callable] = None,
        round_index: int = 0,
    ) -> "UnlearningService":
        """Resume a service whose process died, from its directory alone.

        Replays the journal once to restore every request's state, then
        rebuilds the ensemble as *base save + certified sidecars in
        certification order*, resubmits windows that were
        scheduled/retraining but never certified (``round_index`` stamps
        the resubmission round), and re-queues validated-but-unscheduled
        requests.  Because windows only ever lock disjoint shards, the
        resubmitted chains see exactly the checkpoints their original
        submission saw — the recovered run's certified states are
        bit-identical to an uninterrupted run's.
        """
        ensemble = reference_load(
            os.path.join(directory, "ensemble"),
            model_factory,
            dataset,
            backend=backend,
        )
        service = cls(
            ensemble,
            directory,
            policy=policy,
            backend=backend,
            task_filter=task_filter,
            seed=ensemble.seed,
            _recovered_records=replay(os.path.join(directory, "journal.jsonl")),
        )
        service._resubmit_incomplete(round_index)
        return service

    def _rebuild_from_records(self, records: List[Dict[str, Any]]) -> None:
        """Restore request/window state from replayed journal records."""
        for record in records:
            self._apply(record)
        for window_id in self._certified_order:
            self._install_sidecar(window_id)
        # A crash between `received` and `validated`/`failed` leaves a
        # request in RECEIVED: validation is deterministic, re-run it.
        for request in self.requests.values():
            if request.state == RequestState.RECEIVED:
                self._validate(request)
        # Re-queue every validated-but-unscheduled request.
        for request in self.requests.values():
            if request.state == RequestState.VALIDATED:
                self.manager.enqueue(request)
