"""The four workloads and what they share: seeded blob data and state equality."""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from ..harness import MAX_WORKERS, Workload

#: name -> (module, class, why it exists).  Order is the order ``all`` runs them.
WORKLOADS: Dict[str, tuple] = {
    "unlearn_headline": (
        "bench.workloads.unlearn_headline", "UnlearnHeadline",
        "the paper's claim: Goldfish unlearning vs retrain-from-scratch; nn/training/unlearning bound, runtime idle",
    ),
    "fed_fanout": (
        "bench.workloads.fed_fanout", "FedFanout",
        "dispatch/communication bound rounds on pool and loopback cluster; runtime and cluster do the work, nn little",
    ),
    "vec_cohort": (
        "bench.workloads.vec_cohort", "VecCohort",
        "Python-dispatch bound: one stacked graph vs K scalar graphs, so an nn change helping one path and hurting the other shows",
    ),
    "service_deletions": (
        "bench.workloads.service_deletions", "ServiceDeletions",
        "durability bound: journal, sidecars and fsync beside the recovery read path; retraining kept tiny on purpose",
    ),
}


def workload_class(name: str):
    module_name, class_name, _ = WORKLOADS[name]
    return getattr(importlib.import_module(module_name), class_name)


def worker_count() -> int:
    """Workers a pool or cluster gets: never more than two, never more
    than the CPUs this process may use."""
    return min(MAX_WORKERS, len(os.sched_getaffinity(0)))


@dataclass
class Ping:
    """A no-op task: one round trip through a backend starts its workers."""

    task_id: int

    def run(self) -> int:
        return self.task_id


def warm_backend(kind: str):
    """``(backend, seconds)``: a ``pool`` or ``cluster`` backend with its
    workers started by one no-op round trip, and what starting them cost."""
    from repro.runtime import get_backend

    workers = worker_count()
    start = time.perf_counter()
    backend = get_backend(f"{kind}:{workers}")
    backend.run_tasks([Ping(index) for index in range(workers)])
    return backend, time.perf_counter() - start


def pool_respawns(backend, first_pids) -> float:
    """Workers of ``first_pids`` the pool has since replaced: each one is
    a task retried after a worker death."""
    return float(len(set(first_pids) - set(backend.pool.worker_pids())))


def blob_arrays(seed: int, total: int, size: int, separation: float, classes: int = 3):
    """``total`` unit-noise images of ``classes`` prototypes; every value
    comes from ``seed``.

    The prototypes are orthogonal with norm ``separation`` (in noise
    standard deviations), so every seed poses an equally hard problem, and
    they overlap enough that training never reaches zero loss.  Both
    matter for timing, not only for accuracy: on easy data a converged
    model's gradients underflow to denormals (the same code ran up to 30 %
    slower on some seeds), and on large-amplitude inputs a seed-dependent
    number of ReLU units die, which changes what the delta codec has to
    compress.
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(size * size, classes)))
    means = (separation * basis.T).reshape(classes, 1, size, size)
    labels = np.arange(total) % classes
    images = means[labels] + rng.normal(0.0, 1.0, size=(total, 1, size, size))
    return images, labels


def blob_simulation(seed, clients, per_client, test, size, separation, config,
                    backend, shared=None, **sim_options):
    """A ``FederatedSimulation`` over seeded blobs and the registry MLP.

    With ``shared`` (a list), the client datasets move to shared memory —
    what a pickling backend wants — and are appended to the list so the
    caller can release the segments.
    """
    from repro.data.dataset import ArrayDataset, FederatedDataset
    from repro.federated import FedAvgAggregator, FederatedSimulation
    from repro.nn.models import RegistryModelFactory

    total = clients * per_client + test
    images, labels = blob_arrays(seed, total, size, separation)
    full = ArrayDataset(images=images, labels=labels, num_classes=3, name="bench")
    fed = FederatedDataset(
        client_datasets=[
            full.subset(range(i * per_client, (i + 1) * per_client))
            for i in range(clients)
        ],
        test_set=full.subset(range(clients * per_client, total)),
    )
    if shared is not None:
        fed = fed.share()
        shared.extend(fed.client_datasets)
    factory = RegistryModelFactory(
        name="mlp", num_classes=3, in_channels=1, image_size=size
    )
    return FederatedSimulation(
        factory, fed, FedAvgAggregator(), config, seed=seed, backend=backend,
        **sim_options,
    )


class LockstepRounds(Workload):
    """Three simulations of one federation advanced in lockstep, a block
    of rounds per timed call, checked bit-identical after every triple."""

    BLOCK_ROUNDS = 1
    WARM_ROUNDS = 1
    CLIENT_EPOCHS_PER_ROUND = 0

    sims: Dict[str, Any]

    def warm_up(self) -> None:
        self.round = 0
        self.accuracy = 0.0
        for _ in range(self.WARM_ROUNDS):
            for sim in self.sims.values():
                sim.run_round(self.round)
            self.round += 1

    def io_counter(self, variant: str) -> int:
        """The byte counter whose movement during a block is its ``io_bytes``."""
        raise NotImplementedError

    def _block(self, variant: str) -> Dict[str, int]:
        before = self.io_counter(variant)
        for offset in range(self.BLOCK_ROUNDS):
            record = self.sims[variant].run_round(self.round + offset)
        if variant == "ref":
            self.accuracy = record.global_accuracy
        return {
            "io_bytes": self.io_counter(variant) - before,
            "work_units": self.BLOCK_ROUNDS * self.CLIENT_EPOCHS_PER_ROUND,
        }

    def op(self, index: int) -> Dict[str, int]:
        return self._block("op")

    def alt(self, index: int) -> Dict[str, int]:
        return self._block("alt")

    def ref(self, index: int) -> Dict[str, int]:
        return self._block("ref")

    def check(self, index: int) -> Tuple[int, List[str]]:
        self.round += self.BLOCK_ROUNDS
        reference = self.sims["ref"].server.global_state
        failures = [
            f"{variant} global state differs from ref after round {self.round}"
            for variant in ("op", "alt")
            if not states_equal(self.sims[variant].server.global_state, reference)
        ]
        return 2, failures


def states_equal(a, b) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[key], b[key]) for key in a)
