"""unlearn_headline — the paper's efficiency claim.

One backdoored MNIST-like federation (5 clients, LeNet-5) is pretrained in
set-up; every sample then runs Goldfish unlearning serially (``op``), the
same on a two-worker pool (``alt``), and the retrain-from-scratch baseline
B1 serially (``ref``) from the same pretrained snapshot.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..harness import Workload
from . import pool_respawns, warm_backend


class UnlearnHeadline(Workload):
    samples_per_window = 9
    parallel_variants = ("alt",)
    fanout = {"runtime": ("alt", "op")}

    # Retuned from the issue's 600/8/2/3 so that nine triples and three
    # cold set-ups fit the driver's time cap.
    TRAIN_SIZE = 200
    TEST_SIZE = 200
    PRETRAIN_ROUNDS = 4
    LOCAL_EPOCHS = 2
    UNLEARN_ROUNDS = 2
    BATCH_SIZE = 8
    DELETION_RATE = 0.06
    # Twenty SGD steps per client are all an unlearning run gets at this
    # size, and what they reach is a lottery over the seed: across 230
    # seeds single Goldfish models scored from chance (10 %) to 82 % test
    # accuracy, nine models on one dataset averaged as low as 19 %, and one
    # model in 360 kept a backdoor success above 25 %.  So the statistical
    # limits are on the run as a whole and sit where no healthy seed came
    # near (worst seen: best model 26.5 %, median backdoor 21.7 %, both on
    # a single three-model child); everything else that is checked is exact.
    MIN_BEST_ACCURACY = 20.0
    MAX_MEDIAN_BACKDOOR = 30.0

    def setup(self, seed: int, workdir: str) -> None:
        from repro.experiments import runner
        from repro.experiments.common import backdoor_spec
        from repro.experiments.scale import get_scale
        from repro.federated.metering import state_bytes

        self.runner = runner
        self.scale = get_scale("small").with_overrides(
            train_size=self.TRAIN_SIZE,
            test_size=self.TEST_SIZE,
            pretrain_rounds=self.PRETRAIN_ROUNDS,
            local_epochs=self.LOCAL_EPOCHS,
            unlearn_rounds=self.UNLEARN_ROUNDS,
            batch_size=self.BATCH_SIZE,
        )
        self.timings: Dict[str, float] = {}
        start = time.perf_counter()
        self.prepared = runner.prepare(
            backdoor_spec("mnist", self.DELETION_RATE), self.scale, seed=seed,
            with_history=True,
        )
        self.timings["experiments.prepare_s"] = time.perf_counter() - start
        self.state_bytes = state_bytes(self.prepared.scenario.sim.server.global_state)
        self.pool, self.timings["runtime.pool_spawn_s"] = warm_backend("pool")
        self.pool_pids = list(self.pool.pool.worker_pids())
        self.accuracies: List[float] = []
        self.backdoors: List[float] = []
        self.evaluate_s: List[float] = []
        self.outcomes: Dict[str, Any] = {}

    def _scored(self, outcome) -> None:
        start = time.perf_counter()
        metrics = self.runner.evaluate_model(outcome.global_model, self.prepared.scenario)
        self.evaluate_s.append(time.perf_counter() - start)
        self.accuracies.append(metrics["acc"])
        self.backdoors.append(metrics["backdoor"])

    def op(self, index: int) -> Dict[str, int]:
        outcome = self.runner.run_method(self.prepared, "ours", self.scale)
        self.outcomes["op"] = outcome
        return {
            "io_bytes": outcome.chains * 2 * self.state_bytes,
            "work_units": outcome.local_epochs_total,
        }

    def alt(self, index: int) -> Dict[str, int]:
        before = self.pool.transport_stats.bytes_total
        outcome = self.runner.run_method(
            self.prepared, "ours", self.scale, backend=self.pool
        )
        self.outcomes["alt"] = outcome
        return {"io_bytes": self.pool.transport_stats.bytes_total - before}

    def ref(self, index: int) -> Dict[str, int]:
        self.outcomes["ref"] = self.runner.run_method(self.prepared, "b1", self.scale)
        return {}

    def check(self, index: int) -> Tuple[int, List[str]]:
        # Every Goldfish model of the sequence is scored (untimed): the
        # mean over them is far steadier than one model's score.
        self._scored(self.outcomes["op"])
        failures = []
        expected = self.UNLEARN_ROUNDS * self.LOCAL_EPOCHS * len(self.prepared.scenario.sim.clients)
        for variant, outcome in self.outcomes.items():
            if outcome.local_epochs_total != expected or outcome.rounds_run != self.UNLEARN_ROUNDS:
                failures.append(
                    f"{variant}: ran {outcome.local_epochs_total} epochs over "
                    f"{outcome.rounds_run} rounds, expected {expected}/{self.UNLEARN_ROUNDS}"
                )
            state = outcome.global_model.state_dict()
            if not all(np.isfinite(value).all() for value in state.values()):
                failures.append(f"{variant}: the model it returned is not finite")
        return 2, failures

    def finish(self) -> Dict[str, Any]:
        backdoor = statistics.mean(self.backdoors)
        origin = self.runner.evaluate_model(self.prepared.origin, self.prepared.scenario)
        # Quality is forgetting — the paper's validity instrument: the share
        # of triggered test inputs the unlearned models no longer send to
        # the attacker's label.
        return {
            "quality_pct": 100.0 - backdoor,
            "checks": 0,
            "failures": [],
            "notes": {
                "origin_acc": origin["acc"], "origin_backdoor": origin["backdoor"],
                "unlearned_acc": statistics.mean(self.accuracies),
                "unlearned_backdoor": backdoor,
                "accuracies": self.accuracies, "backdoors": self.backdoors,
            },
        }

    @classmethod
    def check_run(cls, notes: Sequence[Dict[str, Any]]) -> Tuple[int, List[str]]:
        accuracies = [value for child in notes for value in child["accuracies"]]
        backdoors = [value for child in notes for value in child["backdoors"]]
        failures = []
        if max(accuracies) < cls.MIN_BEST_ACCURACY:
            failures.append(
                f"no unlearned model of {len(accuracies)} reached "
                f"{cls.MIN_BEST_ACCURACY} % test accuracy (best {max(accuracies):.1f})"
            )
        if statistics.median(backdoors) > cls.MAX_MEDIAN_BACKDOOR:
            failures.append(
                f"median backdoor success {statistics.median(backdoors):.1f} % "
                f"> {cls.MAX_MEDIAN_BACKDOOR}"
            )
        return 2, failures

    def layer_counters(self) -> Dict[str, float]:
        return {
            "federated.history_bytes": float(
                self.prepared.history.storage_report().total_bytes
            ),
            "unlearning.local_epochs": float(self.outcomes["op"].local_epochs_total),
            "experiments.evaluate_model_s": sorted(self.evaluate_s)[len(self.evaluate_s) // 2],
            "runtime.task_retries": pool_respawns(self.pool, self.pool_pids),
            **self.timings,
        }

    def close(self) -> None:
        self.pool.close()
