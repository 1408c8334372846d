"""service_deletions — the durable deletion pipeline, writes beside reads.

A SISA ensemble (4 shards x 3 slices, 8x8 MLP — retraining kept tiny so
the journal and sidecars are what is measured) serves blocks of deletion
requests.  ``op`` pushes a block through ``UnlearningService`` (journal,
fsync, sidecars), ``alt`` recovers a service from a fixed directory
snapshot taken in set-up (the read path over what ``op`` writes), ``ref`` applies the same
index sets with bare ``SisaEnsemble.delete`` on a twin ensemble.

Every block hits each (shard, slice) cell exactly twice and every request
touches two different shards, so the retraining work per block does not
depend on the seed; the seed picks the samples, the cell order and the
data.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Dict, List, Tuple

import numpy as np

from ..harness import Workload, tree_bytes
from . import blob_arrays


class ServiceDeletions(Workload):
    samples_per_window = 15

    SAMPLES = 2400
    TEST = 240
    SIZE = 8
    SEPARATION = 3.0
    SHARDS = 4
    SLICES = 3
    REQUESTS_PER_BLOCK = SHARDS * SLICES
    SNAPSHOT_BLOCKS = 3
    requests_per_sample = REQUESTS_PER_BLOCK

    def setup(self, seed: int, workdir: str) -> None:
        from repro.data.dataset import ArrayDataset
        from repro.nn.models import RegistryModelFactory
        from repro.unlearning import ImmediatePolicy, SisaConfig, SisaEnsemble, UnlearningService

        self.ImmediatePolicy = ImmediatePolicy
        self.UnlearningService = UnlearningService
        images, labels = blob_arrays(seed, self.SAMPLES + self.TEST, self.SIZE, self.SEPARATION)
        full = ArrayDataset(images=images, labels=labels, num_classes=3, name="bench")
        self.train = full.subset(range(self.SAMPLES))
        self.probe_images = full.subset(range(self.SAMPLES, self.SAMPLES + self.TEST)).images
        self.factory = RegistryModelFactory(
            name="mlp", num_classes=3, in_channels=1, image_size=self.SIZE
        )
        config = SisaConfig(
            num_shards=self.SHARDS, num_slices=self.SLICES, epochs_per_slice=1, batch_size=32
        )

        def ensemble():
            return SisaEnsemble(self.factory, self.train, config, seed=seed).fit()

        self.rng = np.random.default_rng(seed)
        self.twin = ensemble()
        cells: Dict[Tuple[int, int], List[int]] = {}
        for index in self.rng.permutation(self.SAMPLES):
            cells.setdefault(self.twin.shard_of(int(index)), []).append(int(index))
        self.cells = cells

        # The snapshot `alt` recovers from: a service that certified a few
        # blocks and was closed, as after a process death.
        self.snapshot_dir = os.path.join(workdir, "snapshot")
        source = UnlearningService(
            ensemble(), self.snapshot_dir, policy=ImmediatePolicy(), seed=seed
        )
        self.request_serial = 0
        for _ in range(self.SNAPSHOT_BLOCKS):
            self._serve(source, self._block_requests())
        self.snapshot_proba = source.ensemble.predict_proba(self.probe_images)
        self.snapshot_deleted = source.ensemble.deleted_indices
        source.close()
        self.snapshot_bytes = tree_bytes(self.snapshot_dir)

        self.service_dir = os.path.join(workdir, "service")
        self.service = UnlearningService(
            ensemble(), self.service_dir, policy=ImmediatePolicy(), seed=seed
        )
        self.workdir = workdir
        self.submitted = 0
        self.certified_absent = 0
        self.recovered = None
        self.block: List[Tuple[str, List[int]]] = []
        self.journal_path = os.path.join(self.service_dir, "journal.jsonl")
        self.journal_start = self._journal_size()
        self.bytes_start = tree_bytes(self.service_dir)

    def _journal_size(self) -> int:
        # The journal file appears with the first record.
        return os.path.getsize(self.journal_path) if os.path.exists(self.journal_path) else 0

    # -- request generation --------------------------------------------
    def _block_requests(self) -> List[Tuple[str, List[int]]]:
        """One block: every cell twice, two different shards per request."""
        cell_ids = [(shard, piece) for shard in range(self.SHARDS) for piece in range(self.SLICES)]
        order = [cell_ids[k] for k in self.rng.permutation(len(cell_ids))]
        slice_map = self.rng.permutation(self.SLICES)
        requests = []
        for shard, piece in order:
            partner = ((shard + 1) % self.SHARDS, int(slice_map[piece]))
            indices = [self.cells[(shard, piece)].pop(), self.cells[partner].pop()]
            requests.append((f"req-{self.request_serial:05d}", indices))
            self.request_serial += 1
        return requests

    def _serve(self, service, requests) -> List[Any]:
        served = []
        for request_id, indices in requests:
            round_index = int(request_id[4:])
            record = service.submit(0, indices, round_index, request_id=request_id)
            service.tick(round_index)
            service.drain(round_index)
            served.append(record)
        return served

    # -- the sequence ---------------------------------------------------
    def before(self, variant: str, index: int) -> None:
        if variant == "op":
            self.block = self._block_requests()
            self.bytes_before = tree_bytes(self.service_dir)
        elif variant == "alt":
            # Untimed: what `op` just wrote.
            self.block_bytes = tree_bytes(self.service_dir) - self.bytes_before

    def op(self, index: int) -> Dict[str, int]:
        chains = self.service.manager.total_chains_submitted
        self.records = self._serve(self.service, self.block)
        return {"work_units": self.service.manager.total_chains_submitted - chains}

    def alt(self, index: int) -> Dict[str, int]:
        self.recovered = self.UnlearningService.recover(
            self.snapshot_dir, self.factory, self.train, policy=self.ImmediatePolicy()
        )
        return {"io_bytes": self.block_bytes + self.snapshot_bytes}

    def ref(self, index: int) -> Dict[str, int]:
        for _, indices in self.block:
            self.twin.delete(indices)
        return {}

    def check(self, index: int) -> Tuple[int, List[str]]:
        failures = []
        deleted = self.service.ensemble.deleted_indices
        for record, (request_id, indices) in zip(self.records, self.block):
            self.submitted += 1
            if record.state == "certified" and all(i in deleted for i in indices):
                self.certified_absent += 1
            else:
                failures.append(f"{request_id} is {record.state} or its indices survive")
        if not np.array_equal(
            self.service.ensemble.predict_proba(self.probe_images),
            self.twin.predict_proba(self.probe_images),
        ) or deleted != self.twin.deleted_indices:
            failures.append("service ensemble differs from the bare-SISA twin")
        recovered = self.recovered.ensemble
        if not np.array_equal(
            recovered.predict_proba(self.probe_images), self.snapshot_proba
        ) or recovered.deleted_indices != self.snapshot_deleted:
            failures.append("recovered ensemble differs from the snapshot's source")
        self.recovered.close()
        self.recovered = None
        # Recovering a cleanly certified directory writes nothing, which is
        # what lets every sample read the one snapshot instead of a copy.
        if tree_bytes(self.snapshot_dir) != self.snapshot_bytes:
            failures.append("recover() changed the snapshot it read")
        return len(self.block) + 3, failures

    def finish(self) -> Dict[str, Any]:
        return {
            "quality_pct": 100.0 * self.certified_absent / max(1, self.submitted),
            "checks": 0,
            "failures": [],
        }

    def layer_counters(self) -> Dict[str, float]:
        requests = max(1, self.submitted)
        journal = self._journal_size() - self.journal_start
        everything = tree_bytes(self.service_dir) - self.bytes_start
        return {
            "unlearning.journal_bytes_per_req": journal / requests,
            "unlearning.sidecar_bytes_per_req": (everything - journal) / requests,
            "unlearning.chains_per_req": self.service.manager.total_chains_submitted / requests,
        }

    def close(self) -> None:
        if self.recovered is not None:
            self.recovered.close()
        self.service.close()
        for name in os.listdir(self.workdir):
            shutil.rmtree(os.path.join(self.workdir, name))
