"""The pool's zero-redundancy transport: framing, broadcast cache, stats.

Covers the version-addressed broadcast cache (ref / delta / full wire
forms per worker slot), the protocol-5 out-of-band pipe framing, the
per-ticket byte accounting, and the cold-cache fallback after a worker
death — each asserted bit-identical to serial execution.
"""

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend, SerialBackend, TrainTask, capture_rng
from repro.runtime.wire import recv_payload, send_payload
from repro.training import TrainConfig

from ..conftest import make_blobs

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
CONFIG = TrainConfig(epochs=1, batch_size=8, learning_rate=0.05)


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
def pool():
    backend = PoolBackend(max_workers=1)
    yield backend
    backend.close()


class TestPipeFraming:
    def test_roundtrip_with_out_of_band_arrays(self):
        reader, writer = multiprocessing.Pipe(duplex=False)
        payload = {
            "weights": np.arange(1000, dtype=np.float64).reshape(25, 40),
            "meta": {"round": 3, "clients": [1, 2]},
            "small": np.float32(1.5),
        }
        sent = send_payload(writer, payload)
        received, got = recv_payload(reader)
        assert sent == got
        assert sent >= payload["weights"].nbytes  # arrays actually travelled
        np.testing.assert_array_equal(received["weights"], payload["weights"])
        assert received["meta"] == payload["meta"]

    def test_none_sentinel_roundtrips(self):
        reader, writer = multiprocessing.Pipe(duplex=False)
        send_payload(writer, None)
        received, _ = recv_payload(reader)
        assert received is None


@pytest.mark.skipif(not HAS_FORK, reason="pool tests rely on fork start method")
class TestBroadcastCache:
    def test_same_version_batch_ships_one_full_then_refs(self, pool):
        state = FACTORY().state_dict()
        tasks = [make_task(i, seed=i, model_state=state) for i in range(4)]
        serial = SerialBackend().run_tasks(
            [make_task(i, seed=i, model_state=state) for i in range(4)]
        )
        ticket = pool.submit(tasks)
        results = pool.drain(ticket)
        stats = pool.pop_ticket_stats(ticket)
        assert stats.broadcast_full == 1
        assert stats.broadcast_ref == 3
        assert stats.broadcast_delta == 0
        for a, b in zip(results, serial):
            assert_states_equal(a.state, b.state)
            assert a.rng_state == b.rng_state

    def test_new_version_ships_delta_against_cached(self, pool):
        state = FACTORY().state_dict()
        pool.drain(pool.submit([make_task(0, model_state=state)]))
        nearby = {
            key: value + np.full_like(value, 1e-9) for key, value in state.items()
        }
        ticket = pool.submit([make_task(1, seed=1, model_state=nearby)])
        result = pool.drain(ticket)[0]
        stats = pool.pop_ticket_stats(ticket)
        assert stats.broadcast_delta == 1
        assert stats.broadcast_full == 0
        serial = SerialBackend().run_tasks([make_task(1, seed=1, model_state=nearby)])
        assert_states_equal(result.state, serial[0].state)

    def test_per_ticket_stats_isolated_across_interleaved_batches(self, pool):
        state = FACTORY().state_dict()
        first = pool.submit([make_task(0, model_state=state)])
        second = pool.submit([make_task(1, seed=1, model_state=state)])
        pool.drain(first)
        pool.drain(second)
        stats_one = pool.pop_ticket_stats(first)
        stats_two = pool.pop_ticket_stats(second)
        # One worker: whichever dispatched first paid the full send; the
        # other rode the cache.  Jointly exactly one full and one ref.
        assert stats_one.broadcast_full + stats_two.broadcast_full == 1
        assert stats_one.broadcast_ref + stats_two.broadcast_ref == 1
        assert stats_one.bytes_down > 0 and stats_two.bytes_down > 0
        assert pool.pop_ticket_stats(first) is None  # claimed exactly once

    def test_cumulative_transport_stats_accumulate(self, pool):
        state = FACTORY().state_dict()
        pool.run_tasks([make_task(i, seed=i, model_state=state) for i in range(3)])
        totals = pool.transport_stats
        assert totals.broadcast_full == 1
        assert totals.broadcast_ref == 2
        assert totals.bytes_down > 0
        assert totals.bytes_up > 0

    def test_tasks_without_model_state_skip_the_cache(self, pool):
        ticket = pool.submit([make_task(0, model_state=None)])
        pool.drain(ticket)
        stats = pool.pop_ticket_stats(ticket)
        assert stats.broadcast_full == 0
        assert stats.broadcast_ref == 0
        assert stats.broadcast_delta == 0


_DIE_SENTINEL = "die-once-{pid}.sentinel"


@dataclass
class _DieOnceTrainTask(TrainTask):
    """A real TrainTask whose first worker dies mid-run (then succeeds)."""

    sentinel_path: str = ""

    def run(self):
        if self.sentinel_path and not os.path.exists(self.sentinel_path):
            with open(self.sentinel_path, "w"):
                pass
            os._exit(13)
        return super().run()


@pytest.mark.skipif(not HAS_FORK, reason="pool tests rely on fork start method")
class TestWorkerDeathColdCacheFallback:
    def test_respawned_worker_takes_full_state_path_bit_identically(
        self, pool, tmp_path
    ):
        # Warm the single worker's cache with version A.
        state = FACTORY().state_dict()
        warm = pool.submit([make_task(0, model_state=state)])
        pool.drain(warm)
        pool.pop_ticket_stats(warm)
        assert pool.pool.transport_stats.broadcast_full == 1

        # Same version again — would be a bare ref — but the worker dies
        # mid-task.  The respawned worker's slot starts cold, so the
        # resubmitted task must ship the full state again.
        task = _DieOnceTrainTask(
            task_id=1,
            model_factory=FACTORY,
            dataset=make_blobs(
                num_samples=24, num_classes=3, shape=(1, 4, 4), seed=1
            ),
            config=CONFIG,
            rng_state=capture_rng(np.random.default_rng(1)),
            model_state=state,
            sentinel_path=str(tmp_path / "die-once"),
        )
        ticket = pool.submit([task])
        result = pool.drain(ticket)[0]
        stats = pool.pop_ticket_stats(ticket)
        # First dispatch rode the warm cache (ref), the post-death retry
        # went cold (full): both wire forms are accounted on this ticket.
        assert stats.broadcast_ref == 1
        assert stats.broadcast_full == 1

        serial = SerialBackend().run_tasks(
            [make_task(1, seed=1, model_state=state)]
        )[0]
        assert_states_equal(result.state, serial.state)
        assert result.rng_state == serial.rng_state

    def test_death_between_rounds_still_bit_identical_under_delta(
        self, pool, tmp_path
    ):
        # Round 1 (codec=delta) warms the cache; then the worker is killed
        # outright between rounds; round 2 must respawn, ship full state
        # cold, and still decode to the serial result bitwise.
        state = FACTORY().state_dict()
        first = pool.drain(pool.submit([make_task(0, model_state=state, codec="delta")]))
        basis = state
        decoded_pool = first[0].resolve_state(basis)
        serial_first = SerialBackend().run_tasks(
            [make_task(0, model_state=state, codec="delta")]
        )[0]
        assert_states_equal(decoded_pool, serial_first.resolve_state(basis))

        os.kill(pool.pool.worker_pids()[0], 9)

        nearby = decoded_pool
        second = pool.run_tasks(
            [make_task(1, seed=1, model_state=nearby, codec="delta")]
        )[0]
        serial_second = SerialBackend().run_tasks(
            [make_task(1, seed=1, model_state=nearby, codec="delta")]
        )[0]
        assert_states_equal(
            second.resolve_state(nearby), serial_second.resolve_state(nearby)
        )
        assert pool.pool.transport_stats.broadcast_full >= 2  # cold after kill
