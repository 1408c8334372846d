"""Deletion/federation overlap: UnlearningService vs the barriered path.

The workload interleaves a federated training loop with a stream of
deletion requests against a SISA ensemble, both executing on **one shared
worker pool** — the deployment shape the non-blocking deletion service
exists for:

* **barriered** — ``DeletionManager.maybe_execute_batched``: when a flush
  window fires, the whole simulation waits for the window's retrain
  chains before the next federation round may start;
* **service** — ``UnlearningService`` (journaling to a temp directory):
  the same windows are *submitted* (one pool ticket per window) and the
  federation keeps training while the chains retrain;
  ``ExecutedBatch.overlap_rounds`` records how many rounds each window
  overlapped.

Both paths are asserted to produce **bit-identical** final states — the
global federated model *and* every retrained shard — and identical
results-accounting (windows, chains, requests executed).  Chains snapshot
everything they read at submission, so overlap is pure wall-clock.  The
speedup assertion scales with the hardware: with ≥4 usable cores the
barriered path leaves workers idle during every window and the service
must win; on 1–2 cores overlap cannot create compute, so only parity and
accounting are asserted.  Each run appends records to
``benchmarks/results/bench_runtime.json``.

Sizing: ``REPRO_BENCH_SCALE=smoke`` (default; seconds, the CI smoke job)
or ``small`` (larger federation, more pronounced overlap).
"""

import json
import os
import tempfile
import time

import numpy as np

from repro.data.dataset import ArrayDataset, FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend, usable_cpus
from repro.training import TrainConfig
from repro.unlearning import (
    BatchSizePolicy,
    DeletionManager,
    SisaConfig,
    SisaEnsemble,
    UnlearningService,
)

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "bench_runtime.json"
)

SMALL = os.environ.get("REPRO_BENCH_SCALE", "smoke") == "small"
NUM_CLIENTS = 6 if SMALL else 4
PER_CLIENT = 1200 if SMALL else 400
SISA_SAMPLES = 8000 if SMALL else 2400
NUM_ROUNDS = 8 if SMALL else 5
TRAIN = TrainConfig(epochs=2, batch_size=32, learning_rate=0.05)
SISA = SisaConfig(
    num_shards=3, num_slices=2, epochs_per_slice=2, batch_size=32,
    learning_rate=0.05,
)
FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=8)

# round -> global sample indices requested for deletion that round; the
# BatchSizePolicy(2) coalesces them into two flush windows.
REQUEST_SCHEDULE = {1: [10, 1500], 2: [900, 2000]}


def _emit(record: dict) -> None:
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    records = []
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            records = json.load(handle)
    records.append(record)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(records, handle, indent=2)
    print(json.dumps(record))


def _blobs(num_samples: int, seed: int = 0) -> ArrayDataset:
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 3.0, size=(3, 1, 8, 8))
    labels = np.arange(num_samples) % 3
    images = means[labels] + rng.normal(0.0, 0.5, size=(num_samples, 1, 8, 8))
    return ArrayDataset(images=images, labels=labels, num_classes=3, name="bench")


def _build(pool):
    full = _blobs(NUM_CLIENTS * PER_CLIENT + 300)
    clients = [
        full.subset(range(i * PER_CLIENT, (i + 1) * PER_CLIENT)).share()
        for i in range(NUM_CLIENTS)
    ]
    fed = FederatedDataset(
        client_datasets=clients,
        test_set=full.subset(range(NUM_CLIENTS * PER_CLIENT, len(full))),
    )
    sim = FederatedSimulation(
        FACTORY, fed, FedAvgAggregator(), TRAIN, seed=1, backend=pool
    )
    ensemble = SisaEnsemble(
        FACTORY, _blobs(SISA_SAMPLES, seed=2).share(), SISA, seed=0,
        backend=pool,
    ).fit()
    return sim, ensemble


def _file_requests(intake, round_index):
    """``intake`` is whatever takes requests: the manager or the service."""
    for index in REQUEST_SCHEDULE.get(round_index, []):
        intake.submit(client_id=0, indices=[index], round_index=round_index)


def _run_barriered(pool):
    sim, ensemble = _build(pool)
    manager = DeletionManager(BatchSizePolicy(2))
    start = time.perf_counter()
    for round_index in range(NUM_ROUNDS):
        _file_requests(manager, round_index)
        manager.maybe_execute_batched(ensemble, round_index)
        sim.run_round(round_index)
    return time.perf_counter() - start, sim, ensemble, manager


def _run_service(pool):
    sim, ensemble = _build(pool)
    with tempfile.TemporaryDirectory() as directory, UnlearningService(
        ensemble, directory, policy=BatchSizePolicy(2)
    ) as service:
        start = time.perf_counter()
        for round_index in range(NUM_ROUNDS):
            service.poll(round_index)
            _file_requests(service, round_index)
            service.maybe_submit(round_index)
            sim.run_round(round_index)
        service.drain(NUM_ROUNDS)
        # A window whose chains outlast the loop defers the next policy
        # firing past NUM_ROUNDS (real wall-clock decides); flush the tail
        # so every request executes on both paths.
        while service.manager.num_pending:
            service.maybe_submit(NUM_ROUNDS)
            service.drain(NUM_ROUNDS)
        wall = time.perf_counter() - start
    return wall, sim, ensemble, service.manager


class TestDeletionOverlap:
    def test_service_overlaps_rounds_with_identical_results(self):
        cpus = usable_cpus()
        pool = PoolBackend(max_workers=max(2, cpus))
        try:
            barriered_wall, sync_sim, sync_ens, sync_man = _run_barriered(pool)
            service_wall, async_sim, async_ens, async_man = _run_service(pool)
        finally:
            pool.close()

        # Equal results-accounting: same global model, same shard states,
        # same windows/chains/latencies — overlap is pure wall-clock.
        for key, value in sync_sim.server.global_state.items():
            np.testing.assert_array_equal(
                value, async_sim.server.global_state[key]
            )
        for shard_a, shard_b in zip(sync_ens._shards, async_ens._shards):
            for key, value in shard_a.model.state_dict().items():
                np.testing.assert_array_equal(
                    value, shard_b.model.state_dict()[key]
                )
        # (Not request *latencies*: which round a service window fires at
        # depends on real chain wall-clock, so only timing-independent
        # accounting is compared.)
        assert sync_man.num_executions == async_man.num_executions
        assert sync_man.total_chains_submitted == async_man.total_chains_submitted
        assert sum(b.num_requests for b in sync_man.executed_batches) == sum(
            b.num_requests for b in async_man.executed_batches
        )
        # The service path really overlapped; the barriered path never can.
        assert sync_man.total_overlap_rounds == 0
        assert async_man.total_overlap_rounds > 0

        speedup = barriered_wall / service_wall
        for label, wall in (
            ("barriered", barriered_wall), ("service", service_wall),
        ):
            manager = sync_man if label == "barriered" else async_man
            _emit(
                {
                    "workload": "deletion_overlap",
                    "clients": NUM_CLIENTS,
                    "shards": SISA.num_shards,
                    "rounds": NUM_ROUNDS,
                    "backend": "pool",
                    "deletion_path": label,
                    "windows": manager.num_executions,
                    "chains": manager.total_chains_submitted,
                    "overlap_rounds": manager.total_overlap_rounds,
                    "wall_clock_s": round(wall, 4),
                    "cpus": cpus,
                    "speedup_vs_barriered": round(barriered_wall / wall, 3),
                }
            )
        if cpus >= 4:
            # Enough parallel hardware that barriering wastes idle
            # workers during every window: the service must be faster.
            assert speedup >= 1.05, (
                f"expected overlap win on {cpus} cores, got {speedup:.2f}x"
            )
        # 1-2 cores: overlap cannot manufacture compute; parity and the
        # accounting assertions above are the contract.
