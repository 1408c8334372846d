"""Backend layer: resolution, ordering, errors, and cross-backend parity."""

import multiprocessing

import numpy as np
import pytest

from repro.nn.models import MLP
from repro.runtime import (
    Backend,
    BackendError,
    ChainStage,
    ChainTask,
    PoolBackend,
    SerialBackend,
    TrainTask,
    capture_rng,
    get_backend,
)
from repro.training import TrainConfig

from ..conftest import make_blobs

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def module_factory():
    return MLP(16, 3, np.random.default_rng(11))


def make_task(task_id=0, epochs=1, seed=0):
    return TrainTask(
        task_id=task_id,
        model_factory=module_factory,
        dataset=make_blobs(num_samples=24, num_classes=3, shape=(1, 4, 4), seed=seed),
        config=TrainConfig(epochs=epochs, batch_size=8, learning_rate=0.05),
        rng_state=capture_rng(np.random.default_rng(seed)),
    )


class TestGetBackend:
    def test_none_is_serial(self):
        assert isinstance(get_backend(None), SerialBackend)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("serial", SerialBackend),
            ("pool:2", PoolBackend),
            ("processes", PoolBackend),
            ("process", PoolBackend),
            ("fork", PoolBackend),
        ],
    )
    def test_names(self, name, cls):
        assert isinstance(get_backend(name), cls)

    @pytest.mark.parametrize("alias", ["process", "processes", "fork"])
    def test_process_family_is_an_alias_of_the_shared_pool(self, alias):
        # The fork-per-call backend these once named is gone; old specs
        # and REPRO_BACKEND values resolve to the shared pool instead.
        assert get_backend(f"{alias}:4") is get_backend("pool:4")
        assert get_backend(alias) is get_backend("pool")
        assert get_backend(f"{alias}:4:retries=2") is get_backend("pool:4:retries=2")

    def test_instance_passthrough(self):
        backend = SerialBackend()
        assert get_backend(backend) is backend

    @pytest.mark.parametrize("spec", ["thread", "threads", "thread:2"])
    def test_thread_backend_is_gone_and_the_error_names_pool(self, spec):
        # Deleted on its number (never beat the pool, lost to serial where
        # Python dispatch dominates); a stale spec is told what to use.
        with pytest.raises(ValueError, match=r"unknown backend.*'pool:4'"):
            get_backend(spec)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            get_backend(42)

    def test_bad_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            PoolBackend(max_workers=0)


class TestExecution:
    @pytest.mark.parametrize("backend", ["serial", "pool:2", "process"])
    def test_empty_task_list(self, backend):
        assert get_backend(backend).run_tasks([]) == []

    @pytest.mark.parametrize("backend", ["serial", "pool:2", "process"])
    def test_results_keep_submission_order(self, backend):
        # Different epoch counts => different durations; order must hold.
        tasks = [make_task(task_id=i, epochs=1 + (i % 3), seed=i) for i in range(6)]
        results = get_backend(backend).run_tasks(tasks)
        assert [r.task_id for r in results] == list(range(6))
        for task, result in zip(tasks, results):
            assert len(result.history) == task.config.epochs

    @pytest.mark.parametrize("backend", ["pool:2", "process"])
    def test_parallel_matches_serial_bitwise(self, backend):
        tasks = [make_task(task_id=i, seed=i) for i in range(5)]
        serial = SerialBackend().run_tasks(tasks)
        parallel = get_backend(backend).run_tasks(tasks)
        for a, b in zip(serial, parallel):
            assert a.rng_state == b.rng_state
            assert a.history.losses == b.history.losses
            assert sorted(a.state) == sorted(b.state)
            for key in a.state:
                np.testing.assert_array_equal(a.state[key], b.state[key])

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_process_backend_accepts_closure_factories(self):
        # Closures don't pickle; under the "process" alias (the shared
        # pool) such a task runs inline in the caller, and is counted.
        tasks = [make_task(task_id=i, seed=i) for i in range(3)]
        tasks[1].model_factory = lambda: MLP(16, 3, np.random.default_rng(11))
        serial = SerialBackend().run_tasks(tasks)
        backend = get_backend("process")
        ticket = backend.submit(tasks)
        results = backend.drain(ticket)
        assert backend.pop_ticket_stats(ticket).inline_tasks == 1
        for a, b in zip(serial, results):
            for key in a.state:
                np.testing.assert_array_equal(a.state[key], b.state[key])


class _ExplodingTask:
    task_id = "boom"

    def run(self):
        raise RuntimeError("intentional failure")


class TestErrors:
    def test_serial_propagates(self):
        with pytest.raises(RuntimeError, match="intentional failure"):
            SerialBackend().run_tasks([_ExplodingTask(), _ExplodingTask()])

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_process_wraps_in_backend_error(self):
        with pytest.raises(BackendError, match="intentional failure"):
            get_backend("process:2").run_tasks([_ExplodingTask(), _ExplodingTask()])

    @pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")
    def test_process_healthy_tasks_still_complete_alongside_failure(self):
        with pytest.raises(BackendError):
            get_backend("process:2").run_tasks(
                [make_task(0), _ExplodingTask(), make_task(2)]
            )


class TestChainTask:
    DATA = make_blobs(num_samples=24, num_classes=3, shape=(1, 4, 4))
    ALL = np.arange(24)

    def chain(self, stages):
        return ChainTask(
            task_id="chain",
            model_factory=module_factory,
            dataset=self.DATA,
            stages=stages,
            config=TrainConfig(epochs=1, batch_size=8, learning_rate=0.05),
            rng_state=capture_rng(np.random.default_rng(3)),
        )

    def test_checkpoints_every_stage_and_counts_steps(self):
        result = self.chain(
            [ChainStage(0, self.ALL), ChainStage(1, None), ChainStage(2, self.ALL)]
        ).run()
        assert sorted(result.checkpoints) == [0, 1, 2]
        assert result.steps == 2  # the None stage checkpoints without training
        # Stage 1 trains nothing: its checkpoint equals stage 0's exactly.
        for key in result.checkpoints[0]:
            np.testing.assert_array_equal(
                result.checkpoints[0][key], result.checkpoints[1][key]
            )
        assert sorted(result.final_state) == sorted(result.checkpoints[2])
        for key in result.final_state:
            np.testing.assert_array_equal(
                result.final_state[key], result.checkpoints[2][key]
            )

    def test_empty_indices_are_checkpoint_only(self):
        result = self.chain(
            [ChainStage(0, self.ALL), ChainStage(1, np.array([], dtype=np.int64))]
        ).run()
        assert result.steps == 1
        for key in result.checkpoints[0]:
            np.testing.assert_array_equal(
                result.checkpoints[0][key], result.checkpoints[1][key]
            )

    def test_init_state_resumes(self):
        full = self.chain([ChainStage(0, self.ALL), ChainStage(1, self.ALL)]).run()
        resumed_task = self.chain([ChainStage(1, self.ALL)])
        resumed_task.init_state = full.checkpoints[0]
        # Replay stage 1 with the RNG positioned where stage 0 left it.
        resumed_task.rng_state = self.chain([ChainStage(0, self.ALL)]).run().rng_state
        resumed = resumed_task.run()
        for key in full.final_state:
            np.testing.assert_array_equal(
                full.final_state[key], resumed.final_state[key]
            )


class TestBackendProtocol:
    def test_custom_backend_instances_plug_in(self):
        class CountingBackend(Backend):
            name = "counting"

            def __init__(self):
                self.calls = 0

            def run_tasks(self, tasks):
                self.calls += 1
                return [task.run() for task in tasks]

        backend = CountingBackend()
        results = get_backend(backend).run_tasks([make_task(0), make_task(1)])
        assert backend.calls == 1
        assert len(results) == 2
