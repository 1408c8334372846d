"""fed_fanout — dispatch and communication bound federated rounds.

Three simulations of one federation (8 clients x 96 samples, 16x16 MLP,
one local epoch, delta codec) advance in lockstep; one sample is a block
of rounds on a two-worker pool (``op``), on a two-agent loopback cluster
(``alt``) and serially (``ref``).  The model is small, so the time goes
to pickling, codec, pipes/sockets and scheduling.
"""

from __future__ import annotations

from typing import Any, Dict, List

from . import LockstepRounds, blob_simulation, pool_respawns, warm_backend


class FedFanout(LockstepRounds):
    samples_per_window = 9
    parallel_variants = ("op", "alt")
    fanout = {"runtime": ("op", "ref"), "cluster": ("alt", "ref")}

    CLIENTS = 8
    PER_CLIENT = 96
    TEST = 1500
    SIZE = 16
    SEPARATION = 3.0
    WARM_ROUNDS = 3
    BLOCK_ROUNDS = 10
    CLIENT_EPOCHS_PER_ROUND = CLIENTS

    def _build(self, seed: int, backend, shared: bool):
        from repro.training import TrainConfig

        return blob_simulation(
            seed, self.CLIENTS, self.PER_CLIENT, self.TEST, self.SIZE, self.SEPARATION,
            TrainConfig(epochs=1, batch_size=16, learning_rate=0.02),
            backend, self.shared if shared else None, codec="delta",
        )

    def setup(self, seed: int, workdir: str) -> None:
        self.shared: List[Any] = []
        pool, pool_s = warm_backend("pool")
        cluster, cluster_s = warm_backend("cluster")
        self.backends = {"pool": pool, "cluster": cluster}
        self.timings = {"runtime.pool_spawn_s": pool_s, "cluster.spawn_handshake_s": cluster_s}
        self.pool_pids = list(pool.pool.worker_pids())
        self.sims = {
            "op": self._build(seed, pool, shared=True),
            "alt": self._build(seed, cluster, shared=True),
            "ref": self._build(seed, "serial", shared=False),
        }
        self.warm_up()
        self.wire_start = {
            kind: backend.transport_stats.bytes_total
            for kind, backend in self.backends.items()
        }
        self.rounds_start = self.round

    def io_counter(self, variant: str) -> int:
        return self.sims[variant].transport_report()["bytes_total"]

    def finish(self) -> Dict[str, Any]:
        return {"quality_pct": 100.0 * self.accuracy, "checks": 0, "failures": []}

    def layer_counters(self) -> Dict[str, float]:
        rounds = self.round - self.rounds_start
        wire = {
            kind: (backend.transport_stats.bytes_total - self.wire_start[kind]) / rounds
            for kind, backend in self.backends.items()
        }
        faults = self.backends["cluster"].fault_report()
        return {
            "runtime.codec_bytes_per_round":
                self.sims["op"].transport_report()["bytes_up"] / self.round,
            "cluster.wire_bytes_per_round": wire["cluster"],
            "cluster.frame_bytes_overhead": wire["cluster"] - wire["pool"],
            "cluster.resubmits": float(faults["charged_retries"] + faults["free_requeues"]),
            "cluster.lease_expiries": float(faults["lease_expiries"]),
            "runtime.task_retries": pool_respawns(self.backends["pool"], self.pool_pids),
            **self.timings,
        }

    def close(self) -> None:
        for backend in self.backends.values():
            backend.close()
        for dataset in self.shared:
            dataset.close()
