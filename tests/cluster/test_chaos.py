"""Chaos-hardened cluster: seeded fault schedules never change results.

The headline invariant of the fault-injection subsystem: under any
seeded :class:`FaultPlan` that leaves at least one agent alive,
federations over ``cluster:*`` — raw and delta codecs,
vectorized or not — complete **bit-identical** to a fault-free run,
because every recovery path (charge-free corrupt-frame requeue, charged
lease resubmission, agent reconnect, process respawn) re-runs tasks that
carry their full model state and exact RNG position.

Three distinct schedules cover the taxonomy end to end: lossy-slow
(drops + delays), hostile-wire (corruption + tears), and
infrastructure-level (timed partition + SIGKILL with reconnect).
"""

import multiprocessing
import os
import signal

import pytest

from repro.cluster import ClusterBackend, FaultPlan
from repro.runtime import PoolBackend

from .test_parity import assert_states_equal, make_sim

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

pytestmark = pytest.mark.skipif(
    not HAS_FORK, reason="cluster tests spawn local agents via fork"
)

# The three acceptance schedules.  Probabilities are per sent frame;
# agents emit hundreds of frames per run (heartbeats included), so every
# schedule reliably injects faults without drowning the run in them.
DROP_DELAY = FaultPlan(seed=101, drop=0.03, delay=0.2, delay_range=(0.001, 0.004))
CORRUPT_TEAR = FaultPlan(seed=202, corrupt=0.02, tear=0.01)
PARTITION_KILL = FaultPlan(seed=303, drop=0.01, partitions=((25, 0.4),))

SCHEDULES = {
    "drop+delay": DROP_DELAY,
    "corrupt+tear": CORRUPT_TEAR,
    "partition": PARTITION_KILL,
}


def chaos_cluster(plan, workers=2, retries=8, respawn=True):
    """A chaos-armed localhost cluster tuned for fast fault turnaround:
    tight heartbeats, snappy reconnect backoff, short frame stalls."""
    return ClusterBackend(
        max_workers=workers,
        max_task_retries=retries,
        heartbeat_interval=0.2,
        heartbeat_timeout=1.0,
        frame_timeout=5.0,
        chaos=plan,
        respawn=respawn,
        agent_options={"backoff_base": 0.05, "backoff_cap": 0.5},
    )


def fault_activity(report):
    """Total recovery actions a run's FaultReport records."""
    return (
        report["peer_drops"]
        + report["corrupt_frames"]
        + report["reconnects"]
        + report["charged_retries"]
        + report["free_requeues"]
        + report["suspects"]
    )


class TestChaosParity:
    @pytest.mark.parametrize(
        "schedule,codec",
        [("drop+delay", "raw"), ("corrupt+tear", "delta")],
        ids=["drop-sync-raw", "corrupt-sync-delta"],
    )
    def test_chaotic_cluster_matches_fault_free_pool_bitwise(self, schedule, codec):
        pool = PoolBackend(max_workers=2)
        cluster = chaos_cluster(SCHEDULES[schedule])
        try:
            sim_pool = make_sim(backend=pool, codec=codec)
            sim_cluster = make_sim(backend=cluster, codec=codec)
            h_pool = sim_pool.run(3)
            h_cluster = sim_cluster.run(3)
            assert h_cluster.accuracies == h_pool.accuracies
            assert_states_equal(
                sim_cluster.server.global_state, sim_pool.server.global_state
            )
            for a, b in zip(sim_cluster.clients, sim_pool.clients):
                assert_states_equal(a.model.state_dict(), b.model.state_dict())
                assert a.rng.bit_generator.state == b.rng.bit_generator.state
        finally:
            cluster.close()
            pool.close()

    def test_partition_and_sigkill_with_reconnect_bitwise(self):
        """The infrastructure schedule: a timed partition forces a live
        agent through the reconnect loop, and a SIGKILL mid-run forces a
        respawn — both on top of background frame drops."""
        sim_serial = make_sim(backend=None)
        for round_index in range(4):
            sim_serial.run_round(round_index)

        cluster = chaos_cluster(PARTITION_KILL)
        try:
            sim_cluster = make_sim(backend=cluster)
            for round_index in range(4):
                if round_index == 2:
                    os.kill(cluster.agent_pids()[0], signal.SIGKILL)
                sim_cluster.run_round(round_index)
            report = cluster.fault_report()
            assert report["peer_drops"] >= 1  # the SIGKILL at minimum
            # The partition (frame 25 is crossed within the first round's
            # heartbeats) forced at least one same-identity reconnect.
            assert report["reconnects"] >= 1
            assert_states_equal(
                sim_cluster.server.global_state, sim_serial.server.global_state
            )
            for a, b in zip(sim_cluster.clients, sim_serial.clients):
                assert_states_equal(a.model.state_dict(), b.model.state_dict())
                assert a.rng.bit_generator.state == b.rng.bit_generator.state
        finally:
            cluster.close()

    def test_vectorized_run_survives_chaos_bitwise(self):
        pool = PoolBackend(max_workers=2)
        cluster = chaos_cluster(DROP_DELAY)
        try:
            sim_pool = make_sim(backend=pool)
            sim_cluster = make_sim(backend=cluster)
            sim_pool.vectorize = True
            sim_cluster.vectorize = True
            h_pool = sim_pool.run(2)
            h_cluster = sim_cluster.run(2)
            assert h_cluster.accuracies == h_pool.accuracies
            assert sim_cluster.vectorize_report()["rounds_vectorized"] >= 1
            assert_states_equal(
                sim_cluster.server.global_state, sim_pool.server.global_state
            )
        finally:
            cluster.close()
            pool.close()

    def test_runner_methods_on_chaotic_cluster_match_serial(self):
        """The experiment runner's path: pretrain a backdoor scenario, then
        run Goldfish and B1 by name on a chaos-armed cluster —
        every metric and the final global state equal the serial run's."""
        from repro.experiments import SMOKE, runner
        from repro.experiments.common import backdoor_spec

        tiny = SMOKE.with_overrides(
            train_size=120, test_size=60, pretrain_rounds=1, local_epochs=1,
            unlearn_rounds=1,
        )
        spec = backdoor_spec("mnist", 0.06)

        def run_methods(backend):
            prepared = runner.prepare(spec, tiny, seed=0, backend=backend)
            models = {"origin": prepared.origin}
            for method in ("ours", "b1"):
                models[method] = runner.run_method(
                    prepared, method, tiny, backend=backend
                ).global_model
            return {
                name: (runner.evaluate_model(model, prepared.scenario), model)
                for name, model in models.items()
            }

        serial = run_methods(None)
        cluster = chaos_cluster(DROP_DELAY)
        try:
            chaotic = run_methods(cluster)
            assert fault_activity(cluster.fault_report()) >= 1
        finally:
            cluster.close()
        assert list(chaotic) == list(serial)
        for name, (metrics, model) in chaotic.items():
            assert metrics == serial[name][0], name
            assert_states_equal(model.state_dict(), serial[name][1].state_dict())

    def test_fault_report_records_the_recovery_work(self):
        """The ledger is not decorative: a chaotic run's report shows the
        machinery actually firing (and a calm run's shows it idle)."""
        calm = ClusterBackend(max_workers=2)
        chaotic = chaos_cluster(CORRUPT_TEAR)
        try:
            make_sim(backend=calm).run(2)
            assert fault_activity(calm.fault_report()) == 0
            make_sim(backend=chaotic).run(3)
            assert fault_activity(chaotic.fault_report()) >= 1
        finally:
            chaotic.close()
            calm.close()


class TestUnlearningUnderChaos:
    def test_deletion_windows_certify_bit_identically_on_chaotic_cluster(
        self, tmp_path
    ):
        """Tentpole item (e) end to end: `UnlearningService` retrain
        windows flow through the same lease/requeue path as federation
        tasks, so a chaotic cluster certifies the exact shard states a
        serial run does."""
        from repro.unlearning import BatchSizePolicy, UnlearningService
        from ..unlearning.test_service import (
            assert_states_equal as assert_shards_equal,
            fresh_ensemble,
            reference_states,
            shard_states,
        )

        expected = reference_states([(0, [3, 40])])
        cluster = chaos_cluster(DROP_DELAY)
        try:
            ensemble = fresh_ensemble(backend=cluster)
            with UnlearningService(
                ensemble, str(tmp_path / "svc"), policy=BatchSizePolicy(2)
            ) as service:
                service.submit(0, [3], 0, request_id="r1")
                service.submit(0, [40], 0, request_id="r2")
                service.tick(0)
                service.drain(1)
                assert service.states() == {
                    "r1": "certified", "r2": "certified",
                }
            assert_shards_equal(shard_states(ensemble), expected)
        finally:
            cluster.close()


class TestGracefulDegradation:
    def test_survivors_drain_the_round_when_respawn_is_off(self):
        sim_serial = make_sim(backend=None)
        for round_index in range(3):
            sim_serial.run_round(round_index)

        cluster = chaos_cluster(None, workers=2, respawn=False)
        try:
            sim_cluster = make_sim(backend=cluster)
            for round_index in range(3):
                if round_index == 1:
                    os.kill(cluster.agent_pids()[0], signal.SIGKILL)
                sim_cluster.run_round(round_index)
            # The fleet really shrank — no replacement was spawned — and
            # the surviving agent absorbed the dead one's leases.
            assert len(cluster.agent_pids()) == 1
            # The drop is in the ledger; whether it charged the retry
            # budget depends on whether the dead agent held a lease at
            # that instant, so only the drop itself is asserted.
            assert cluster.fault_report()["peer_drops"] >= 1
            assert_states_equal(
                sim_cluster.server.global_state, sim_serial.server.global_state
            )
        finally:
            cluster.close()
