"""One contract, two transports: the pool and the cluster must agree.

``pool`` (pipes) and ``cluster`` (loopback TCP) run the same dispatch
core (:mod:`repro.runtime.dispatch`), so everything that core promises —
broadcast wire forms per receiver, per-ticket accounting, failure and
death handling, the streaming surface — is asserted here once, on both,
through the same public ``Backend`` surface.  What only one transport
has (pipe framing, control traffic, chaos, the wire failure taxonomy)
is tested beside that transport.
"""

import multiprocessing
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.nn.models import RegistryModelFactory
from repro.runtime import BackendError, SerialBackend, TrainTask, capture_rng, get_backend
from repro.training import TrainConfig

from ..conftest import make_blobs

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers and local cluster agents start via fork",
)

WORKERS = 2
FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
CONFIG = TrainConfig(epochs=1, batch_size=8, learning_rate=0.05)


def make_task(task_id=0, seed=None, model_state=None, cls=TrainTask, **extra):
    seed = task_id if seed is None else seed
    return cls(
        task_id=task_id,
        model_factory=FACTORY,
        dataset=make_blobs(num_samples=24, num_classes=3, shape=(1, 4, 4), seed=seed),
        config=CONFIG,
        rng_state=capture_rng(np.random.default_rng(seed)),
        model_state=model_state,
        **extra,
    )


def make_tasks(count, model_state=None, start=0):
    return [make_task(start + i, model_state=model_state) for i in range(count)]


def assert_bit_identical_to_serial(results, tasks):
    for got, want in zip(results, SerialBackend().run_tasks(tasks)):
        assert got.rng_state == want.rng_state
        assert set(got.state) == set(want.state)
        for key in want.state:
            np.testing.assert_array_equal(got.state[key], want.state[key])


def nearby(state):
    return {key: value + np.full_like(value, 1e-9) for key, value in state.items()}


def receiver_pids(backend):
    return backend.pool.worker_pids() if backend.name == "pool" else backend.agent_pids()


@dataclass
class _BoomTask(TrainTask):
    def run(self):
        raise ValueError("deliberate")


@dataclass
class _DieOnceTask(TrainTask):
    """Kills the first receiver that runs it, then succeeds."""

    sentinel_path: str = ""

    def run(self):
        if not os.path.exists(self.sentinel_path):
            with open(self.sentinel_path, "w"):
                pass
            os._exit(13)
        return super().run()


@dataclass
class _AlwaysDiesTask(TrainTask):
    def run(self):
        os._exit(13)


@dataclass
class _LambdaResultTask(TrainTask):
    def run(self):
        return lambda: None  # cannot be pickled back


def cold(spec):
    """The shared backend for ``spec``, restarted so every cache is cold."""
    backend = get_backend(spec)
    backend.close()
    return backend


@pytest.fixture(params=[f"pool:{WORKERS}", f"cluster:{WORKERS}"])
def backend(request):
    backend = cold(request.param)
    yield backend
    backend.close()


class TestBroadcastContract:
    def test_cold_cache_ships_one_full_per_receiver_then_refs(self, backend):
        state = FACTORY().state_dict()
        tasks = make_tasks(6, state)
        ticket = backend.submit(tasks)
        results = backend.drain(ticket)
        stats = backend.pop_ticket_stats(ticket)
        # Both idle receivers are fed at submit and pay the full state
        # once; every later dispatch of the version rides their caches.
        assert stats.broadcast_full == WORKERS
        assert stats.broadcast_ref == len(tasks) - WORKERS
        assert stats.broadcast_delta == 0
        assert stats.bytes_down > 0 and stats.bytes_up > 0
        assert_bit_identical_to_serial(results, tasks)

    def test_new_version_ships_delta_against_the_cache(self, backend):
        state = FACTORY().state_dict()
        backend.run_tasks(make_tasks(WORKERS, state))
        tasks = make_tasks(WORKERS, nearby(state), start=10)
        ticket = backend.submit(tasks)
        results = backend.drain(ticket)
        stats = backend.pop_ticket_stats(ticket)
        assert stats.broadcast_delta == WORKERS
        assert stats.broadcast_full == 0
        assert_bit_identical_to_serial(results, tasks)

    def test_ticket_stats_are_isolated_and_claimed_exactly_once(self, backend):
        state = FACTORY().state_dict()
        before = backend.transport_stats
        first = backend.submit(make_tasks(1, state))
        second = backend.submit(make_tasks(3, state, start=1))
        backend.drain(second)
        backend.drain(first)
        one, two = backend.pop_ticket_stats(first), backend.pop_ticket_stats(second)
        assert one.broadcast_full + one.broadcast_ref == 1
        assert two.broadcast_full + two.broadcast_ref == 3
        assert one.bytes_down > 0 and two.bytes_down > 0
        totals = backend.transport_stats
        assert totals.broadcast_full - before.broadcast_full == WORKERS
        assert backend.pop_ticket_stats(first) is None
        assert backend.pop_ticket_stats(second) is None


class TestFailureContract:
    def test_task_exception_fails_the_batch_with_traceback(self, backend):
        with pytest.raises(BackendError, match="deliberate") as caught:
            backend.run_tasks([make_task(0, cls=_BoomTask), make_task(1)])
        assert "Traceback" in str(caught.value)
        # The receivers survive a task's exception.
        tasks = make_tasks(2)
        assert_bit_identical_to_serial(backend.run_tasks(tasks), tasks)

    def test_unpicklable_task_completes_inline_and_is_counted(self, backend):
        class _ClosureTask:
            task_id = "closure"

            def __init__(self):
                self.fn = lambda: 41

            def run(self):
                return self.fn() + 1

        before = backend.transport_stats.inline_tasks
        ticket = backend.submit([_ClosureTask(), make_task(1)])
        results = backend.drain(ticket)
        assert results[0] == 42
        assert backend.pop_ticket_stats(ticket).inline_tasks == 1
        assert backend.transport_stats.inline_tasks == before + 1

    def test_unpicklable_result_fails_that_task_not_its_receiver(self, backend):
        backend.run_tasks(make_tasks(WORKERS))
        pids = receiver_pids(backend)
        with pytest.raises(BackendError, match="(?i)pickle"):
            backend.run_tasks([make_task(0, cls=_LambdaResultTask), make_task(1)])
        assert receiver_pids(backend) == pids

    def test_kill_mid_task_resubmits_bit_identically_and_replacement_goes_cold(
        self, backend, tmp_path
    ):
        state = FACTORY().state_dict()
        cold_fulls = backend.transport_stats.broadcast_full
        backend.run_tasks(make_tasks(WORKERS, state))  # every cache holds the version
        warm_fulls = backend.transport_stats.broadcast_full
        assert warm_fulls == cold_fulls + WORKERS

        doomed = make_task(
            7, model_state=state, cls=_DieOnceTask, sentinel_path=str(tmp_path / "died")
        )
        ticket = backend.submit([doomed])
        result = backend.drain(ticket)[0]
        stats = backend.pop_ticket_stats(ticket)
        assert stats.broadcast_ref >= 1  # the first dispatch rode a warm cache
        assert stats.broadcast_full + stats.broadcast_ref == 2  # ...then one retry
        assert_bit_identical_to_serial([result], [make_task(7, model_state=state)])

        # The survivor is still warm; only the replacement receiver is
        # cold, and it pays the full state exactly once — on the retry
        # itself if the retry landed there, else on its first task.
        deadline = time.monotonic() + 60
        while backend.transport_stats.broadcast_full == warm_fulls:
            assert time.monotonic() < deadline, "replacement receiver never served"
            backend.run_tasks(make_tasks(WORKERS, state))
        backend.run_tasks(make_tasks(2 * WORKERS, state))
        assert backend.transport_stats.broadcast_full == warm_fulls + 1

    @pytest.mark.parametrize("spec", [f"pool:{WORKERS}", f"cluster:{WORKERS}"])
    def test_repeated_deaths_exhaust_the_retry_budget(self, spec):
        backend = cold(f"{spec}:retries=0")
        try:
            with pytest.raises(BackendError, match="giving up"):
                backend.run_tasks([make_task(0, cls=_AlwaysDiesTask), make_task(1)])
        finally:
            backend.close()


class TestStreamingContract:
    def test_interleaved_tickets_poll_and_drain_out_of_order(self, backend):
        first_tasks, second_tasks = make_tasks(2), make_tasks(2, start=2)
        first = backend.submit(first_tasks)
        second = backend.submit(second_tasks)
        assert backend.outstanding_tickets == [first, second]
        deadline = time.monotonic() + 60
        while not backend.poll(second):
            assert time.monotonic() < deadline
        assert_bit_identical_to_serial(backend.drain(second), second_tasks)
        assert_bit_identical_to_serial(backend.drain(first), first_tasks)
        assert backend.outstanding_tickets == []
        with pytest.raises(ValueError, match="unknown or already-drained"):
            backend.drain(first)

    def test_close_then_lazy_restart(self, backend):
        tasks = make_tasks(2)
        backend.run_tasks(tasks)
        assert backend.running
        pids = receiver_pids(backend)
        backend.close()
        assert not backend.running
        assert_bit_identical_to_serial(backend.run_tasks(tasks), tasks)
        assert backend.running
        assert not set(receiver_pids(backend)) & set(pids)
