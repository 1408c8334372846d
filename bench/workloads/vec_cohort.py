"""vec_cohort — Python-dispatch bound local training.

32 clients x 64 samples, 8x8 MLP, 8 local epochs of batch 8.  ``op``
trains the cohort as one stacked graph serially, ``alt`` splits the stack
over a two-worker pool (the composed axis), ``ref`` trains the 32 scalar
graphs one by one.  An nn change that helps one path and hurts the other
shows in ``op_ref_ratio``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from . import LockstepRounds, blob_simulation, pool_respawns, warm_backend


class VecCohort(LockstepRounds):
    samples_per_window = 15
    parallel_variants = ("alt",)
    fanout = {"runtime": ("alt", "op")}

    CLIENTS = 32
    PER_CLIENT = 64
    TEST = 1500
    SIZE = 8
    SEPARATION = 3.0
    EPOCHS = 8
    BATCH = 8
    CLIENT_EPOCHS_PER_ROUND = CLIENTS * EPOCHS

    def _build(self, seed: int, backend, vectorize: bool, shared: bool):
        from repro.training import TrainConfig

        return blob_simulation(
            seed, self.CLIENTS, self.PER_CLIENT, self.TEST, self.SIZE, self.SEPARATION,
            TrainConfig(epochs=self.EPOCHS, batch_size=self.BATCH, learning_rate=0.02),
            backend, self.shared if shared else None, vectorize=vectorize,
        )

    def setup(self, seed: int, workdir: str) -> None:
        self.shared: List[Any] = []
        self.pool, spawn_s = warm_backend("pool")
        self.timings = {"runtime.pool_spawn_s": spawn_s}
        self.pool_pids = list(self.pool.pool.worker_pids())
        self.sims = {
            "op": self._build(seed, "serial", vectorize=True, shared=False),
            "alt": self._build(seed, self.pool, vectorize=True, shared=True),
            "ref": self._build(seed, "serial", vectorize=False, shared=False),
        }
        self.warm_up()

    def io_counter(self, variant: str) -> int:
        # Only `alt` moves it: the serial variants cross no process boundary.
        return self.pool.transport_stats.bytes_total

    def finish(self) -> Dict[str, Any]:
        failures = []
        for variant in ("op", "alt"):
            report = self.sims[variant].vectorize_report()
            if report["rounds_fallback"] or report["rounds_vectorized"] != self.round:
                failures.append(f"{variant} fell back to the scalar path: {report}")
        return {"quality_pct": 100.0 * self.accuracy, "checks": 2, "failures": failures}

    def layer_counters(self) -> Dict[str, float]:
        return {
            "runtime.task_retries": pool_respawns(self.pool, self.pool_pids),
            **self.timings,
        }

    def close(self) -> None:
        self.pool.close()
        for dataset in self.shared:
            dataset.close()
