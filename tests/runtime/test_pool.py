"""The persistent worker pool: parity, reuse, specs, death recovery.

The pool's contract is that of every other backend — bit-identical
results — plus three properties of its own: the workers *persist* across
``run_tasks`` calls (that is the perf win), batches can be interleaved
through ``submit``/``drain``, and a worker dying mid-task is repaired
(respawn + resubmit) instead of hanging or corrupting the batch.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.data.dataset import FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import MLP, RegistryModelFactory
from repro.runtime import (
    BACKEND_ENV_VAR,
    BackendError,
    PoolBackend,
    SerialBackend,
    TrainTask,
    WorkerPool,
    capture_rng,
    get_backend,
    parse_backend_spec,
)
from repro.training import TrainConfig
from repro.unlearning import SisaConfig, SisaEnsemble

from ..conftest import make_blob_federation, make_blobs

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
CONFIG = TrainConfig(epochs=1, batch_size=8, learning_rate=0.05)


def make_task(task_id=0, seed=0, epochs=1):
    return TrainTask(
        task_id=task_id,
        model_factory=FACTORY,
        dataset=make_blobs(num_samples=24, num_classes=3, shape=(1, 4, 4), seed=seed),
        config=TrainConfig(epochs=epochs, batch_size=8, learning_rate=0.05),
        rng_state=capture_rng(np.random.default_rng(seed)),
    )


def assert_results_equal(a, b):
    assert a.task_id == b.task_id
    assert a.rng_state == b.rng_state
    for key in a.state:
        np.testing.assert_array_equal(a.state[key], b.state[key])


@pytest.fixture
def pool():
    backend = PoolBackend(max_workers=2)
    yield backend
    backend.close()


class _DieOnce:
    """Kills its first worker, succeeds on the retry (sentinel on disk)."""

    task_id = "die-once"

    def __init__(self, sentinel_path):
        self.sentinel_path = sentinel_path

    def run(self):
        if not os.path.exists(self.sentinel_path):
            with open(self.sentinel_path, "w"):
                pass
            os._exit(13)
        return "survived"


class _DieAlways:
    task_id = "die-always"

    def run(self):
        os._exit(13)


class _Explode:
    task_id = "boom"

    def run(self):
        raise RuntimeError("intentional failure")


class TestSpecs:
    def test_pool_spec_resolves_and_is_shared(self):
        first = get_backend("pool:3")
        try:
            assert isinstance(first, PoolBackend)
            assert first.max_workers == 3
            # Same spec → same warm pool, everywhere in the process.
            assert get_backend("pool:3") is first
            assert get_backend("pool") is not first  # different size key
        finally:
            first.close()
            get_backend("pool").close()

    def test_direct_instances_are_private(self):
        a, b = PoolBackend(max_workers=2), PoolBackend(max_workers=2)
        assert a.pool is not b.pool
        a.close()
        b.close()

    @pytest.mark.parametrize(
        "spec,cls,workers",
        [
            ("process:4", PoolBackend, 4),
            ("pool:2", PoolBackend, 2),
            ("fork:8", PoolBackend, 8),
        ],
    )
    def test_worker_counts_in_specs(self, spec, cls, workers):
        backend = get_backend(spec)
        assert isinstance(backend, cls)
        assert backend.max_workers == workers

    @pytest.mark.parametrize("spec", ["process:0", "process:x", "serial:2"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            get_backend(spec)

    def test_parse_backend_spec(self):
        assert parse_backend_spec("pool:8") == ("pool", 8, {})
        assert parse_backend_spec("Serial") == ("serial", None, {})

    def test_parse_backend_spec_options(self):
        assert parse_backend_spec("pool:8:retries=2") == (
            "pool",
            8,
            {"retries": 2},
        )
        # Options compose without a worker count, in either position.
        assert parse_backend_spec("pool:retries=0") == (
            "pool",
            None,
            {"retries": 0},
        )
        # The process family is an alias of pool, options included.
        assert parse_backend_spec("process:4:retries=2") == (
            "pool",
            4,
            {"retries": 2},
        )
        with pytest.raises(ValueError, match="does not support option"):
            parse_backend_spec("serial:retries=2")
        with pytest.raises(ValueError, match="does not support option"):
            parse_backend_spec("pool:8:reties=2")  # typo'd key
        with pytest.raises(ValueError, match="expected an integer"):
            parse_backend_spec("pool:8:retries=two")
        with pytest.raises(ValueError, match="retries must be >= 0"):
            parse_backend_spec("pool:8:retries=-1")
        with pytest.raises(ValueError, match="two worker counts"):
            parse_backend_spec("pool:8:4")

    def test_retries_option_reaches_pool_and_keys_cache(self):
        patient = get_backend("pool:2:retries=3")
        default = get_backend("pool:2")
        try:
            assert patient.max_task_retries == 3
            # Different death budgets must not share a pool.
            assert patient is not default
            assert get_backend("pool:2:retries=3") is patient
        finally:
            patient.close()
            default.close()

    def test_parse_rejects_unknown_name_eagerly(self):
        # The CLI relies on parse-time validation to fail before any
        # dataset synthesis or training starts.
        with pytest.raises(ValueError, match="unknown backend"):
            parse_backend_spec("porcess:8")
        with pytest.raises(ValueError, match="worker count"):
            parse_backend_spec("serial:4")
        with pytest.raises(ValueError, match="worker count"):
            parse_backend_spec("pool:")  # lost digit, not "no count"

    def test_env_override_applies_when_spec_is_none(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pool:3")
        backend = get_backend(None)
        assert isinstance(backend, PoolBackend)
        assert backend.max_workers == 3

    def test_env_naming_the_deleted_thread_backend_is_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "thread")
        with pytest.raises(ValueError, match="pool"):
            get_backend(None)

    def test_env_override_empty_means_serial(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert isinstance(get_backend(None), SerialBackend)

    def test_explicit_spec_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pool")
        assert isinstance(get_backend("serial"), SerialBackend)


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestPoolExecution:
    def test_bitwise_parity_with_serial(self, pool):
        tasks = [make_task(task_id=i, seed=i) for i in range(5)]
        serial = SerialBackend().run_tasks(tasks)
        pooled = pool.run_tasks(tasks)
        for a, b in zip(serial, pooled):
            assert_results_equal(a, b)

    def test_workers_persist_across_calls(self, pool):
        tasks = [make_task(task_id=i, seed=i) for i in range(4)]
        pool.run_tasks(tasks)
        first_pids = pool.pool.worker_pids()
        assert len(first_pids) == 2
        for _ in range(3):
            pool.run_tasks(tasks)
        assert pool.pool.worker_pids() == first_pids

    def test_results_keep_submission_order(self, pool):
        tasks = [make_task(task_id=i, seed=i, epochs=1 + (i % 3)) for i in range(6)]
        results = pool.run_tasks(tasks)
        assert [r.task_id for r in results] == list(range(6))

    def test_submit_drain_interleaved_batches(self, pool):
        tasks = [make_task(task_id=i, seed=i) for i in range(5)]
        first = pool.submit(tasks[:2])
        second = pool.submit(tasks[2:])
        # Drain out of order: batches share the workers but not results.
        late = pool.drain(second)
        early = pool.drain(first)
        assert [r.task_id for r in early] == [0, 1]
        assert [r.task_id for r in late] == [2, 3, 4]

    def test_drain_unknown_ticket_rejected(self, pool):
        with pytest.raises(ValueError, match="ticket"):
            pool.drain(999)

    def test_poll_reports_completion_without_blocking(self, pool):
        import time

        ticket = pool.submit([make_task(task_id=0)])
        # poll() makes progress and eventually reports done; drain() then
        # returns instantly with the same results it always would.
        deadline = time.monotonic() + 30.0
        while not pool.poll(ticket):
            if time.monotonic() > deadline:
                pytest.fail("batch never completed under poll()")
            time.sleep(0.001)
        assert [r.task_id for r in pool.drain(ticket)] == [0]

    def test_poll_unknown_ticket_rejected(self, pool):
        with pytest.raises(ValueError, match="ticket"):
            pool.poll(123)

    def test_outstanding_tickets_tracked(self, pool):
        first = pool.submit([make_task(task_id=0)])
        second = pool.submit([make_task(task_id=1, seed=1)])
        assert pool.outstanding_tickets == [first, second]
        pool.drain(first)
        assert pool.outstanding_tickets == [second]
        pool.drain(second)
        assert pool.outstanding_tickets == []

    def test_empty_batch(self, pool):
        assert pool.run_tasks([]) == []

    def test_close_fails_outstanding_batches_instead_of_hanging(self, pool):
        ticket = pool.submit([make_task(task_id=i, seed=i) for i in range(4)])
        pool.close()
        with pytest.raises(BackendError, match="closed"):
            pool.drain(ticket)
        # And the pool is usable again afterwards.
        assert pool.run_tasks([make_task(7, seed=7)])[0].task_id == 7

    def test_pool_restarts_after_close(self, pool):
        tasks = [make_task(task_id=i, seed=i) for i in range(3)]
        expected = SerialBackend().run_tasks(tasks)
        pool.run_tasks(tasks)
        pool.close()
        assert not pool.pool.running
        for a, b in zip(expected, pool.run_tasks(tasks)):
            assert_results_equal(a, b)


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestPoolFaults:
    def test_task_exception_fails_batch_but_not_pool(self, pool):
        with pytest.raises(BackendError, match="intentional failure"):
            pool.run_tasks([make_task(0), _Explode(), make_task(2)])
        # The pool survives a failed batch.
        results = pool.run_tasks([make_task(5, seed=5)])
        assert results[0].task_id == 5

    def test_worker_death_respawns_and_resubmits(self, pool, tmp_path):
        sentinel = str(tmp_path / "died-once")
        tasks = [_DieOnce(sentinel), make_task(1, seed=1)]
        pool.run_tasks([make_task(0), make_task(3, seed=3)])  # warm the pool
        before = pool.pool.worker_pids()
        results = pool.run_tasks(tasks)
        assert results[0] == "survived"
        assert results[1].task_id == 1
        # Exactly the killed worker was replaced.
        after = pool.pool.worker_pids()
        assert len(after) == len(before)
        assert after != before

    def test_worker_death_between_submit_and_drain_interleaved_tickets(self, pool):
        """Regression: a worker killed while *two* tickets are outstanding.

        The pool's death repair (respawn + resubmit) must restore every
        lost task to its own batch slot: after the kill, each ticket must
        still drain to its exact submission order with results
        bit-identical to serial — the interleaving must not let a
        resubmitted task's result land in the other ticket or shift
        positions within its own.
        """
        first_tasks = [make_task(task_id=i, seed=i, epochs=2) for i in range(3)]
        second_tasks = [
            make_task(task_id=10 + i, seed=10 + i, epochs=2) for i in range(3)
        ]
        expected_first = SerialBackend().run_tasks(first_tasks)
        expected_second = SerialBackend().run_tasks(second_tasks)

        pool.run_tasks([make_task(0)])  # warm the workers
        first = pool.submit(first_tasks)
        second = pool.submit(second_tasks)
        # Kill one worker while both tickets have tasks outstanding.
        victim = pool.pool.worker_pids()[0]
        os.kill(victim, 9)
        late = pool.drain(second)
        early = pool.drain(first)
        assert [r.task_id for r in early] == [0, 1, 2]
        assert [r.task_id for r in late] == [10, 11, 12]
        for got, want in zip(early, expected_first):
            assert_results_equal(got, want)
        for got, want in zip(late, expected_second):
            assert_results_equal(got, want)
        # The dead worker was replaced, not leaked.
        assert len(pool.pool.worker_pids()) == len(set(pool.pool.worker_pids()))
        assert victim not in pool.pool.worker_pids()

    def test_repeatedly_dying_task_fails_batch(self, pool):
        with pytest.raises(BackendError, match="died"):
            pool.run_tasks([_DieAlways(), make_task(1, seed=1)])
        # And the pool is still serviceable afterwards.
        assert pool.run_tasks([make_task(2, seed=2)])[0].task_id == 2

    def test_mid_experiment_worker_death_keeps_rounds_identical(self, tmp_path):
        """A worker killed between federated rounds must not change any
        number: the respawned worker picks up tasks that carry their own
        state, so the run is still bit-identical to serial."""
        def build(backend):
            clients, test = make_blob_federation(
                num_clients=4, per_client=24, test_size=24, seed=3
            )
            fed = FederatedDataset(client_datasets=clients, test_set=test)
            return FederatedSimulation(
                FACTORY, fed, FedAvgAggregator(), CONFIG, seed=3, backend=backend
            )

        serial = build(None)
        h_serial = serial.run(3)

        backend = PoolBackend(max_workers=2)
        try:
            pooled = build(backend)
            record0 = pooled.run_round(0)
            # Simulate an external kill (OOM reaper, preemption) between
            # rounds, then keep going.
            victim = backend.pool.worker_pids()[0]
            os.kill(victim, 9)
            record1 = pooled.run_round(1)
            record2 = pooled.run_round(2)
            accuracies = [
                r.global_accuracy for r in (record0, record1, record2)
            ]
            assert accuracies == h_serial.accuracies
            for key in serial.server.global_state:
                np.testing.assert_array_equal(
                    serial.server.global_state[key],
                    pooled.server.global_state[key],
                )
        finally:
            backend.close()


@pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
class TestPoolParityAcrossSites:
    """A private pool vs the ``"process"`` alias spec (the shared pool)
    vs serial on the real fan-out sites."""

    SISA = SisaConfig(
        num_shards=3, num_slices=3, epochs_per_slice=1, batch_size=8,
        learning_rate=0.08,
    )

    def run_federated(self, backend):
        clients, test = make_blob_federation(
            num_clients=4, per_client=24, test_size=24, seed=7
        )
        fed = FederatedDataset(client_datasets=clients, test_set=test)
        sim = FederatedSimulation(
            FACTORY, fed, FedAvgAggregator(), CONFIG, seed=7, backend=backend
        )
        history = sim.run(3)
        return sim, history

    def test_federated_rounds_identical_across_pool_fork_serial(self):
        serial_sim, serial_history = self.run_federated(None)
        fork_sim, fork_history = self.run_federated("process")
        backend = PoolBackend(max_workers=2)
        try:
            pool_sim, pool_history = self.run_federated(backend)
        finally:
            backend.close()
        assert serial_history.accuracies == fork_history.accuracies
        assert serial_history.accuracies == pool_history.accuracies
        for key in serial_sim.server.global_state:
            np.testing.assert_array_equal(
                serial_sim.server.global_state[key],
                pool_sim.server.global_state[key],
            )
            np.testing.assert_array_equal(
                serial_sim.server.global_state[key],
                fork_sim.server.global_state[key],
            )
        for a, b in zip(serial_sim.clients, pool_sim.clients):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def run_sisa(self, backend):
        dataset = make_blobs(num_samples=54, num_classes=3, shape=(1, 4, 4))
        ensemble = SisaEnsemble(
            FACTORY, dataset, self.SISA, seed=0, backend=backend
        )
        ensemble.fit()
        targets = [
            int(ensemble._shards[0].slice_indices[1][0]),
            int(ensemble._shards[2].slice_indices[2][0]),
        ]
        report = ensemble.delete(targets)
        return ensemble, report

    def test_sisa_fit_and_delete_identical_across_pool_fork_serial(self):
        serial_ensemble, serial_report = self.run_sisa(None)
        fork_ensemble, _ = self.run_sisa("process")
        backend = PoolBackend(max_workers=2)
        try:
            pool_ensemble, pool_report = self.run_sisa(backend)
        finally:
            backend.close()
        assert serial_report.shards_affected == pool_report.shards_affected
        assert serial_report.slices_retrained == pool_report.slices_retrained
        for reference, candidate in (
            (serial_ensemble, fork_ensemble),
            (serial_ensemble, pool_ensemble),
        ):
            for a, b in zip(reference._shards, candidate._shards):
                for key, value in a.model.state_dict().items():
                    np.testing.assert_array_equal(value, b.model.state_dict()[key])

    def test_one_pool_serves_federated_and_sisa_back_to_back(self):
        """The ROADMAP promise: simulation, ensemble and protocols reuse
        one warm pool instead of each forking their own workers."""
        backend = PoolBackend(max_workers=2)
        try:
            sim, _ = self.run_federated(backend)
            pids_after_federated = backend.pool.worker_pids()
            ensemble, _ = self.run_sisa(backend)
            assert backend.pool.worker_pids() == pids_after_federated
        finally:
            backend.close()


class TestWorkerPoolValidation:
    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=0)

    def test_bad_retry_count(self):
        with pytest.raises(ValueError):
            WorkerPool(max_task_retries=-1)

    def test_context_manager_closes(self):
        with WorkerPool(max_workers=2) as pool:
            pool.run_tasks([make_task(0), make_task(1, seed=1)])
            assert pool.running
        assert not pool.running
