"""ClusterBackend on a localhost cluster: parity, caches, fault recovery.

Mirrors the worker-pool transport tests (`tests/runtime/test_pool_transport.py`)
over TCP: same broadcast-cache wire forms, same per-ticket accounting,
same respawn-with-cold-cache semantics when a node agent is killed — and
every result bit-identical to serial execution.
"""

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster import ClusterBackend, client_handshake, connect
from repro.cluster.wire import send_message
from repro.nn.models import RegistryModelFactory
from repro.runtime import SerialBackend, TrainTask, capture_rng
from repro.runtime.backends import BackendError, get_backend, parse_backend_spec
from repro.training import TrainConfig

from ..conftest import make_blobs

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
CONFIG = TrainConfig(epochs=1, batch_size=8, learning_rate=0.05)

pytestmark = pytest.mark.skipif(
    not HAS_FORK, reason="cluster tests spawn local agents via fork"
)


def make_task(task_id=0, seed=0, model_state=None, codec="raw"):
    return TrainTask(
        task_id=task_id,
        model_factory=FACTORY,
        dataset=make_blobs(num_samples=24, num_classes=3, shape=(1, 4, 4), seed=seed),
        config=CONFIG,
        rng_state=capture_rng(np.random.default_rng(seed)),
        model_state=model_state,
        codec=codec,
    )


def assert_states_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


@pytest.fixture
def cluster():
    backend = ClusterBackend(max_workers=1)
    yield backend
    backend.close()


@dataclass
class _BoomTask(TrainTask):
    """Raises remotely — the error string must travel back verbatim."""

    def run(self):
        raise ValueError("deliberate")


@dataclass
class _AlwaysDiesTask(TrainTask):
    """Kills its node agent every single time it is attempted."""

    def run(self):
        os._exit(13)


class TestRunTasks:
    def test_single_task_serves_inline_without_standing_up_sockets(self):
        backend = ClusterBackend(max_workers=1)
        result = backend.run_tasks([make_task(0)])[0]
        assert not backend.running  # serial shortcut, no cluster
        assert backend.last_batch_stats is None
        serial = SerialBackend().run_tasks([make_task(0)])[0]
        assert_states_equal(result.state, serial.state)

    def test_batch_is_bit_identical_to_serial(self, cluster):
        state = FACTORY().state_dict()
        results = cluster.run_tasks(
            [make_task(i, seed=i, model_state=state) for i in range(4)]
        )
        serial = SerialBackend().run_tasks(
            [make_task(i, seed=i, model_state=state) for i in range(4)]
        )
        for a, b in zip(results, serial):
            assert_states_equal(a.state, b.state)
            assert a.rng_state == b.rng_state

    def test_task_exception_fails_the_batch_with_traceback(self, cluster):
        task = _BoomTask(
            task_id=0,
            model_factory=FACTORY,
            dataset=make_blobs(num_samples=8, num_classes=3, shape=(1, 4, 4)),
            config=CONFIG,
            rng_state=capture_rng(np.random.default_rng(0)),
        )
        with pytest.raises(BackendError, match="deliberate"):
            cluster.run_tasks([task, make_task(1)])

    def test_unpicklable_task_falls_back_inline(self, cluster):
        class _ClosureTask:
            task_id = "closure"

            def __init__(self):
                self.fn = lambda: 41  # not picklable

            def run(self):
                return self.fn() + 1

        ticket = cluster.submit([_ClosureTask(), make_task(1)])
        results = cluster.drain(ticket)
        stats = cluster.pop_ticket_stats(ticket)
        assert results[0] == 42
        assert stats.inline_tasks == 1


class TestBroadcastCache:
    def test_one_agent_ships_one_full_then_refs(self, cluster):
        state = FACTORY().state_dict()
        ticket = cluster.submit(
            [make_task(i, seed=i, model_state=state) for i in range(4)]
        )
        cluster.drain(ticket)
        stats = cluster.pop_ticket_stats(ticket)
        assert stats.broadcast_full == 1
        assert stats.broadcast_ref == 3
        assert stats.broadcast_delta == 0
        assert stats.bytes_down > 0 and stats.bytes_up > 0

    def test_new_version_ships_delta_against_agent_cache(self, cluster):
        state = FACTORY().state_dict()
        cluster.drain(cluster.submit([make_task(0, model_state=state)]))
        nearby = {
            key: value + np.full_like(value, 1e-9) for key, value in state.items()
        }
        ticket = cluster.submit([make_task(1, seed=1, model_state=nearby)])
        result = cluster.drain(ticket)[0]
        stats = cluster.pop_ticket_stats(ticket)
        assert stats.broadcast_delta == 1
        assert stats.broadcast_full == 0
        serial = SerialBackend().run_tasks([make_task(1, seed=1, model_state=nearby)])
        assert_states_equal(result.state, serial[0].state)

    def test_multi_agent_full_per_first_contact(self):
        backend = ClusterBackend(max_workers=2)
        try:
            state = FACTORY().state_dict()
            ticket = backend.submit(
                [make_task(i, seed=i, model_state=state) for i in range(6)]
            )
            backend.drain(ticket)
            stats = backend.pop_ticket_stats(ticket)
            # Each agent pays full exactly once on first contact; every
            # other dispatch of the same version rides the cache.
            assert 1 <= stats.broadcast_full <= 2
            assert stats.broadcast_full + stats.broadcast_ref == 6
        finally:
            backend.close()

    def test_control_traffic_counts_in_totals_not_tickets(self, cluster):
        ticket = cluster.submit([make_task(0)])
        cluster.drain(ticket)
        ticket_stats = cluster.pop_ticket_stats(ticket)
        totals = cluster.transport_stats
        # Handshake + pull frames ride the same sockets but are only in
        # the cumulative/per-peer ledgers.
        assert totals.bytes_up > ticket_stats.bytes_up
        assert totals.bytes_down > ticket_stats.bytes_down
        assert sum(s.bytes_total for s in cluster.peer_stats().values()) > 0


_DIE_SENTINEL = "die-once-{pid}.sentinel"


@dataclass
class _DieOnceTrainTask(TrainTask):
    """A real TrainTask whose first node agent dies mid-run (then succeeds)."""

    sentinel_path: str = ""

    def run(self):
        if self.sentinel_path and not os.path.exists(self.sentinel_path):
            with open(self.sentinel_path, "w"):
                pass
            os._exit(13)
        return super().run()


class TestAgentDeathRecovery:
    def test_agent_killed_mid_task_resubmits_bit_identically(self, cluster, tmp_path):
        # Warm the single agent's cache with version A.
        state = FACTORY().state_dict()
        warm = cluster.submit([make_task(0, model_state=state)])
        cluster.drain(warm)
        cluster.pop_ticket_stats(warm)
        assert cluster.transport_stats.broadcast_full == 1

        # Same version again — would be a bare ref — but the agent dies
        # mid-task.  The respawned agent's cache starts cold, so the
        # resubmitted task must ship the full state again.
        task = _DieOnceTrainTask(
            task_id=1,
            model_factory=FACTORY,
            dataset=make_blobs(num_samples=24, num_classes=3, shape=(1, 4, 4), seed=1),
            config=CONFIG,
            rng_state=capture_rng(np.random.default_rng(1)),
            model_state=state,
            sentinel_path=str(tmp_path / "die-once"),
        )
        ticket = cluster.submit([task])
        result = cluster.drain(ticket)[0]
        stats = cluster.pop_ticket_stats(ticket)
        assert stats.broadcast_ref == 1  # first dispatch rode the warm cache
        assert stats.broadcast_full == 1  # the post-death retry went cold

        serial = SerialBackend().run_tasks([make_task(1, seed=1, model_state=state)])[0]
        assert_states_equal(result.state, serial.state)
        assert result.rng_state == serial.rng_state

    def test_sigkill_between_rounds_reconnects_with_cold_cache(self, cluster):
        state = FACTORY().state_dict()
        cluster.drain(cluster.submit([make_task(0, model_state=state)]))
        assert cluster.transport_stats.broadcast_full == 1

        (pid,) = cluster.agent_pids()
        os.kill(pid, signal.SIGKILL)

        results = cluster.drain(cluster.submit([make_task(1, seed=1, model_state=state)]))
        serial = SerialBackend().run_tasks([make_task(1, seed=1, model_state=state)])
        assert_states_equal(results[0].state, serial[0].state)
        # The replacement agent's first broadcast took the full path.
        assert cluster.transport_stats.broadcast_full >= 2
        # And the dead agent was actually replaced.
        assert cluster.agent_pids() and cluster.agent_pids() != [pid]

    def test_repeated_deaths_exhaust_the_retry_budget(self, tmp_path):
        backend = ClusterBackend(max_workers=1, max_task_retries=0)
        try:
            task = _AlwaysDiesTask(
                task_id=0,
                model_factory=FACTORY,
                dataset=make_blobs(num_samples=8, num_classes=3, shape=(1, 4, 4)),
                config=CONFIG,
                rng_state=capture_rng(np.random.default_rng(0)),
            )
            with pytest.raises(BackendError, match="giving up"):
                backend.run_tasks([task, make_task(1)])
        finally:
            backend.close()


class TestStreamingSurface:
    def test_interleaved_tickets_poll_and_drain_out_of_order(self, cluster):
        state = FACTORY().state_dict()
        first = cluster.submit([make_task(0, model_state=state)])
        second = cluster.submit([make_task(1, seed=1, model_state=state)])
        assert set(cluster.outstanding_tickets) == {first, second}
        deadline = time.monotonic() + 60
        while not cluster.poll(second):
            assert time.monotonic() < deadline
        cluster.drain(second)
        cluster.drain(first)
        assert cluster.outstanding_tickets == []
        assert cluster.pop_ticket_stats(first).bytes_down > 0
        assert cluster.pop_ticket_stats(first) is None  # claimed exactly once

    def test_close_and_lazy_restart(self, cluster):
        cluster.run_tasks([make_task(i) for i in range(2)])
        assert cluster.running
        cluster.close()
        assert not cluster.running
        results = cluster.run_tasks([make_task(i) for i in range(2)])
        serial = SerialBackend().run_tasks([make_task(i) for i in range(2)])
        assert_states_equal(results[0].state, serial[0].state)


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "frame", [("result", 0), ("result", 0, None, None, None, "extra")]
    )
    def test_malformed_result_drops_the_peer_not_the_run(self, cluster, frame):
        # A peer that speaks the handshake but then sends a result tuple
        # of the wrong shape is a protocol violation: it is dropped (its
        # lease charged and resubmitted) and the batch drains on the
        # surviving agent instead of the unpack error escaping drain().
        joined = threading.Event()

        def rogue():
            channel = connect(cluster.address, timeout=10.0)
            client_handshake(channel, {"agent_id": "rogue", "capacity": 1})
            send_message(channel, frame)
            joined.set()
            stop.wait(30.0)
            channel.close()

        stop = threading.Event()
        thread = threading.Thread(target=rogue, daemon=True)
        cluster.wait_for_agents(1)
        thread.start()
        try:
            cluster.wait_for_agents(2)  # pumps the rogue's handshake through
            assert joined.wait(10.0)
            tasks = [make_task(i, seed=i) for i in range(4)]
            results = cluster.run_tasks(tasks)
        finally:
            stop.set()
            thread.join(10.0)
        serial = SerialBackend().run_tasks([make_task(i, seed=i) for i in range(4)])
        for a, b in zip(results, serial):
            assert_states_equal(a.state, b.state)
        report = cluster.fault_report()
        assert report["peer_drops"] == 1
        assert report["charged_retries"] == 1  # the task the rogue was leased
        assert report["corrupt_frames"] == 0  # a violation, not line noise
        assert cluster.coordinator.peer_ids() == ["node-1"]

    def test_non_integer_capacity_joins_at_one(self, cluster):
        # The hello passes the handshake's checks; its capacity is the
        # coordinator's to read, and a bad one must not crash the pump.
        joined = threading.Event()
        stop = threading.Event()

        def rogue():
            channel = connect(cluster.address, timeout=10.0)
            client_handshake(channel, {"agent_id": "rogue", "capacity": "many"})
            joined.set()
            stop.wait(30.0)
            channel.close()

        thread = threading.Thread(target=rogue, daemon=True)
        cluster.wait_for_agents(1)
        thread.start()
        try:
            cluster.wait_for_agents(2)
            assert joined.wait(10.0)
            assert cluster.coordinator._peers["rogue"].capacity == 1
        finally:
            stop.set()
            thread.join(10.0)


class TestSpecGrammar:
    def test_parse_cluster_specs(self):
        assert parse_backend_spec("cluster:2:retries=1:lease=120") == (
            "cluster",
            2,
            {"retries": 1, "lease": 120},
        )
        assert parse_backend_spec("cluster") == ("cluster", None, {})
        with pytest.raises(ValueError, match="does not support option"):
            parse_backend_spec("pool:2:lease=30")
        with pytest.raises(ValueError, match="lease must be >= 1"):
            parse_backend_spec("cluster:2:lease=0")

    def test_get_backend_shares_instances_per_configuration(self):
        one = get_backend("cluster:2:retries=2:lease=60")
        two = get_backend("cluster:2:retries=2:lease=60")
        other = get_backend("cluster:2")
        try:
            assert isinstance(one, ClusterBackend)
            assert one is two
            assert one is not other
            assert one.max_task_retries == 2
            assert not one.running  # lazy: no sockets until first use
        finally:
            one.close()
            other.close()

    def test_parse_capacity_and_chaos_options(self):
        assert parse_backend_spec("cluster:3:capacity=2") == (
            "cluster",
            3,
            {"capacity": 2},
        )
        name, workers, options = parse_backend_spec(
            "cluster:2:chaos=seed=7,drop=0.05,partition=40@0.5"
        )
        assert (name, workers) == ("cluster", 2)
        assert options == {"chaos": "seed=7,drop=0.05,partition=40@0.5"}
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            parse_backend_spec("cluster:2:capacity=0")
        # A typo'd schedule fails at spec-parse time, not at first use.
        with pytest.raises(ValueError, match="bad chaos schedule"):
            parse_backend_spec("cluster:2:chaos=seed=7,jitter=0.5")

    def test_chaos_spec_arms_the_backend(self):
        from repro.cluster.chaos import FaultPlan

        backend = get_backend("cluster:2:chaos=seed=9,drop=0.02")
        try:
            assert isinstance(backend, ClusterBackend)
            assert backend.chaos == FaultPlan(seed=9, drop=0.02)
            # A differently-seeded schedule is a different cluster.
            other = get_backend("cluster:2:chaos=seed=10,drop=0.02")
            assert other is not backend
            other.close()
        finally:
            backend.close()

    def test_env_var_resolves_cluster_spec(self, monkeypatch):
        from repro.runtime.backends import BACKEND_ENV_VAR

        monkeypatch.setenv(BACKEND_ENV_VAR, "cluster:2:retries=1")
        backend = get_backend(None)
        try:
            assert isinstance(backend, ClusterBackend)
            assert backend.max_workers == 2
        finally:
            backend.close()
