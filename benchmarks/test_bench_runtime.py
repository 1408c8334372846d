"""Runtime benchmark: serial vs the warm worker pool.

Four workloads, matching the refactored fan-out sites:

* one federated round across 8 clients (``FederatedSimulation.run_round``);
* a 4-shard SISA fit (``SisaEnsemble.fit``);
* a **multi-round** federated run on a private two-worker pool over
  shared-memory datasets (the warm-pool smoke benchmark);
* a stream of SISA deletion requests executed immediately vs coalesced
  per flush window through ``DeletionManager.maybe_execute_batched``
  (fewer retrain chains than requests).

Each run is asserted bit-identical across backends and appended as a
JSON record to ``benchmarks/results/bench_runtime.json`` so the perf
trajectory stays machine-readable across PRs::

    {"workload": ..., "clients": ..., "shards": ..., "backend": ...,
     "wall_clock_s": ..., "cpus": ..., "speedup_vs_serial": ...}

The single-round speedup assertion scales with the hardware: ≥1.5×
needs ≥4 usable cores (on 1 core a multi-process backend can only add
overhead, so there the benchmark records timings and checks parity
only).  Records with ``"backend": "process"`` (and their
``speedup_vs_fork_per_call`` field) in the results file were taken with
the fork-per-call backend the pool replaced; they are history, and
nothing here appends to that series any more.
"""

import json
import os
import time

import numpy as np
import pytest

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
)

RESULTS_PATH = os.path.join(
    os.path.dirname(__file__), "results", "bench_runtime.json"
)

NUM_CLIENTS = 8
NUM_SHARDS = 4


def _emit(record: dict) -> None:
    """Append one benchmark record to the machine-readable results file."""
    os.makedirs(os.path.dirname(RESULTS_PATH), exist_ok=True)
    records = []
    if os.path.exists(RESULTS_PATH):
        with open(RESULTS_PATH) as handle:
            records = json.load(handle)
    records.append(record)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(records, handle, indent=2)
    print(json.dumps(record))


def _assert_speedup(speedup: float) -> None:
    """Hardware-scaled wall-clock expectation for the pool backend."""
    cpus = usable_cpus()
    if cpus >= 4:
        assert speedup >= 1.5, f"expected >=1.5x on {cpus} cores, got {speedup:.2f}x"
    elif cpus >= 2:
        assert speedup >= 1.1, f"expected >=1.1x on {cpus} cores, got {speedup:.2f}x"
    # Single core: parallelism cannot help; parity was still verified.


def _blobs(num_samples: int, seed: int = 0) -> ArrayDataset:
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, 3.0, size=(3, 1, 8, 8))
    labels = np.arange(num_samples) % 3
    images = means[labels] + rng.normal(0.0, 0.5, size=(num_samples, 1, 8, 8))
    return ArrayDataset(images=images, labels=labels, num_classes=3, name="bench")


FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=8)


class TestFederatedRoundSpeedup:
    # Sized so one client's local round is ~0.1-0.2 s: large enough that
    # process fan-out dominates pickling/IPC overhead on a multi-core box,
    # small enough to keep the whole benchmark in seconds.
    CONFIG = TrainConfig(epochs=5, batch_size=32, learning_rate=0.05)

    def build(self, backend):
        per_client = 2000
        full = _blobs(NUM_CLIENTS * per_client + 200)
        clients = [
            full.subset(range(i * per_client, (i + 1) * per_client))
            for i in range(NUM_CLIENTS)
        ]
        fed = FederatedDataset(
            client_datasets=clients,
            test_set=full.subset(range(NUM_CLIENTS * per_client, len(full))),
        )
        if backend == "pool":
            # Pooled tasks are pickled: ship handles + indices, not arrays.
            fed = fed.share()
        return FederatedSimulation(
            FACTORY, fed, FedAvgAggregator(), self.CONFIG, seed=1, backend=backend
        )

    def test_pool_round_speedup_and_parity(self):
        timings = {}
        states = {}
        for backend in ("serial", "pool"):
            sim = self.build(backend)
            start = time.perf_counter()
            sim.run_round(0)
            timings[backend] = time.perf_counter() - start
            states[backend] = sim.server.global_state

        for key in states["serial"]:
            np.testing.assert_array_equal(
                states["serial"][key], states["pool"][key]
            )
        speedup = timings["serial"] / timings["pool"]
        for backend in ("serial", "pool"):
            _emit(
                {
                    "workload": "federated_round",
                    "clients": NUM_CLIENTS,
                    "shards": 0,
                    "backend": backend,
                    "wall_clock_s": round(timings[backend], 4),
                    "cpus": usable_cpus(),
                    "speedup_vs_serial": round(
                        timings["serial"] / timings[backend], 3
                    ),
                }
            )
        _assert_speedup(speedup)


class TestSisaFitSpeedup:
    CONFIG = SisaConfig(
        num_shards=NUM_SHARDS,
        num_slices=2,
        epochs_per_slice=4,
        batch_size=32,
        learning_rate=0.05,
    )

    def test_pool_fit_speedup_and_parity(self):
        dataset = _blobs(12000, seed=2)
        timings = {}
        ensembles = {}
        for backend in ("serial", "pool"):
            ensemble = SisaEnsemble(FACTORY, dataset, self.CONFIG, seed=0, backend=backend)
            start = time.perf_counter()
            ensemble.fit()
            timings[backend] = time.perf_counter() - start
            ensembles[backend] = ensemble

        for a, b in zip(
            ensembles["serial"]._shards, ensembles["pool"]._shards
        ):
            for key, value in a.model.state_dict().items():
                np.testing.assert_array_equal(value, b.model.state_dict()[key])
        speedup = timings["serial"] / timings["pool"]
        for backend in ("serial", "pool"):
            _emit(
                {
                    "workload": "sisa_fit",
                    "clients": 0,
                    "shards": NUM_SHARDS,
                    "backend": backend,
                    "wall_clock_s": round(timings[backend], 4),
                    "cpus": usable_cpus(),
                    "speedup_vs_serial": round(
                        timings["serial"] / timings[backend], 3
                    ),
                }
            )
        _assert_speedup(speedup)


class TestWarmPoolMultiRound:
    """The persistent pool vs serial on a many-round experiment.

    Sized so one round's local training is *small*: exactly the regime
    of real federated unlearning runs, where tens to hundreds of rounds
    each fan out a modest batch of client work and per-round dispatch
    overhead is what the timing shows.  Client datasets go to shared
    memory, so each pooled task pickles as a handle + indices, not
    arrays.
    """

    ROUNDS = 12
    CONFIG = TrainConfig(epochs=1, batch_size=32, learning_rate=0.05)

    def build(self, backend, shared: bool):
        per_client = 96
        full = _blobs(NUM_CLIENTS * per_client + 120, seed=5)
        clients = [
            full.subset(range(i * per_client, (i + 1) * per_client))
            for i in range(NUM_CLIENTS)
        ]
        fed = FederatedDataset(
            client_datasets=clients,
            test_set=full.subset(range(NUM_CLIENTS * per_client, len(full))),
        )
        if shared:
            fed = fed.share()
        return FederatedSimulation(
            FACTORY, fed, FedAvgAggregator(), self.CONFIG, seed=3, backend=backend
        )

    def test_pool_stays_bit_identical_over_many_rounds(self):
        timings = {}
        states = {}

        # Pin the baseline explicitly: backend=None would resolve the
        # REPRO_BACKEND env override and silently stop being serial.
        sim = self.build("serial", shared=False)
        start = time.perf_counter()
        serial_history = sim.run(self.ROUNDS)
        timings["serial"] = time.perf_counter() - start
        states["serial"] = sim.server.global_state

        pool = PoolBackend(max_workers=2)
        try:
            sim = self.build(pool, shared=True)
            start = time.perf_counter()
            pool_history = sim.run(self.ROUNDS)
            timings["pool"] = time.perf_counter() - start
            states["pool"] = sim.server.global_state
        finally:
            pool.close()

        # Parallelism (and shared memory, and pooling) changes nothing:
        # the pool produces the serial run bit for bit.
        assert serial_history.accuracies == pool_history.accuracies
        for key in states["serial"]:
            np.testing.assert_array_equal(states["serial"][key], states["pool"][key])

        for backend in ("serial", "pool"):
            _emit(
                {
                    "workload": "federated_multi_round",
                    "clients": NUM_CLIENTS,
                    "shards": 0,
                    "rounds": self.ROUNDS,
                    "backend": backend,
                    "wall_clock_s": round(timings[backend], 4),
                    "cpus": usable_cpus(),
                    "speedup_vs_serial": round(
                        timings["serial"] / timings[backend], 3
                    ),
                }
            )


class TestDeletionBatching:
    """Immediate vs coalesced deletion on one SISA ensemble.

    The same six requests, executed one-by-one (ImmediatePolicy — every
    request pays its own retrain chains and checkpoint replay) vs
    coalesced into one flush window routed through the runtime
    (``maybe_execute_batched`` — one chain per affected shard, however
    many requests hit it).  Batching must submit strictly fewer chains
    than requests; immediate cannot.
    """

    SISA = SisaConfig(
        num_shards=NUM_SHARDS,
        num_slices=3,
        epochs_per_slice=2,
        batch_size=32,
        learning_rate=0.05,
    )
    NUM_REQUESTS = 6

    def build_ensemble(self):
        dataset = _blobs(4800, seed=7)
        return SisaEnsemble(FACTORY, dataset, self.SISA, seed=1).fit()

    def request_targets(self, ensemble):
        """Six single-sample requests spread over two shards' last slices
        (the favourable-but-realistic case: users cluster in time, so one
        flush window usually hits a few shards many times)."""
        targets = []
        for shard in (0, 2):
            for offset in range(3):
                targets.append(
                    int(ensemble._shards[shard].slice_indices[2][offset])
                )
        return targets

    def test_batched_window_submits_fewer_chains_than_requests(self):
        # --- immediate: one execution (and >= one chain) per request ----
        ensemble = self.build_ensemble()
        targets = self.request_targets(ensemble)
        immediate = DeletionManager()  # ImmediatePolicy
        start = time.perf_counter()
        for round_index, target in enumerate(targets):
            immediate.submit(client_id=0, indices=[target], round_index=round_index)
            batch = immediate.maybe_execute_batched(ensemble, round_index)
            assert batch is not None
        immediate_seconds = time.perf_counter() - start
        immediate_chains = immediate.total_chains_submitted

        # --- batched: one flush window for the whole stream -------------
        ensemble = self.build_ensemble()
        targets = self.request_targets(ensemble)
        batched = DeletionManager(BatchSizePolicy(min_requests=self.NUM_REQUESTS))
        start = time.perf_counter()
        for round_index, target in enumerate(targets):
            batched.submit(client_id=0, indices=[target], round_index=round_index)
            batched.maybe_execute_batched(ensemble, round_index)
        batched_seconds = time.perf_counter() - start
        batched_chains = batched.total_chains_submitted

        assert immediate.num_executions == self.NUM_REQUESTS
        assert batched.num_executions == 1
        assert immediate_chains == self.NUM_REQUESTS  # one shard hit per request
        assert batched_chains == 2  # shards 0 and 2, once each
        assert batched_chains < self.NUM_REQUESTS
        assert batched_seconds < immediate_seconds

        for policy, chains, executions, seconds in (
            ("immediate", immediate_chains, immediate.num_executions, immediate_seconds),
            ("batched", batched_chains, batched.num_executions, batched_seconds),
        ):
            _emit(
                {
                    "workload": "sisa_deletion_batching",
                    "clients": 0,
                    "shards": NUM_SHARDS,
                    "backend": "serial",
                    "policy": policy,
                    "requests": self.NUM_REQUESTS,
                    "executions": executions,
                    "chains_submitted": chains,
                    "wall_clock_s": round(seconds, 4),
                    "cpus": usable_cpus(),
                    "speedup_vs_serial": 1.0,
                }
            )
