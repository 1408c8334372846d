"""Client join/leave dynamics."""

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.federated import (
    ChurnEvent,
    ChurnSchedule,
    ChurnSimulation,
    FedAvgAggregator,
    FederatedSimulation,
)
from repro.nn.models import MLP, RegistryModelFactory
from repro.runtime import PoolBackend
from repro.training import TrainConfig

from ..conftest import make_blob_federation


def build_sim(num_clients=4, seed=0):
    clients, test = make_blob_federation(num_clients, per_client=25, test_size=50,
                                         seed=seed)
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    return FederatedSimulation(
        lambda: MLP(16, 3, np.random.default_rng(42)),
        fed, FedAvgAggregator(),
        TrainConfig(epochs=1, batch_size=10, learning_rate=0.1),
        seed=seed,
    )


class TestScheduleValidation:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChurnEvent(0, 1, "vanish")
        with pytest.raises(ValueError):
            ChurnEvent(-1, 1, "join")

    def test_schedule_needs_initial_clients(self):
        with pytest.raises(ValueError):
            ChurnSchedule(initial_clients=[])

    def test_unknown_client_rejected(self):
        sim = build_sim(num_clients=2)
        schedule = ChurnSchedule(initial_clients=[0, 1]).add(1, 9, "join")
        with pytest.raises(ValueError):
            ChurnSimulation(sim, schedule)

    def test_events_at(self):
        schedule = ChurnSchedule(initial_clients=[0])
        schedule.add(2, 1, "join").add(2, 2, "join").add(3, 1, "leave")
        assert len(schedule.events_at(2)) == 2
        assert len(schedule.events_at(0)) == 0


class TestChurnRuns:
    def test_join_expands_participation(self):
        sim = build_sim(num_clients=3)
        schedule = ChurnSchedule(initial_clients=[0]).add(1, 1, "join").add(2, 2, "join")
        churn = ChurnSimulation(sim, schedule)
        churn.run(3)
        assert churn.activity_log[0] == [0]
        assert churn.activity_log[1] == [0, 1]
        assert churn.activity_log[2] == [0, 1, 2]

    def test_leave_shrinks_participation(self):
        sim = build_sim(num_clients=3)
        schedule = ChurnSchedule(initial_clients=[0, 1, 2]).add(1, 2, "leave")
        churn = ChurnSimulation(sim, schedule)
        churn.run(2)
        assert churn.activity_log[0] == [0, 1, 2]
        assert churn.activity_log[1] == [0, 1]
        assert 2 in churn.departed

    def test_departed_client_cannot_rejoin(self):
        sim = build_sim(num_clients=2)
        schedule = (
            ChurnSchedule(initial_clients=[0, 1])
            .add(1, 1, "leave")
            .add(2, 1, "join")
        )
        churn = ChurnSimulation(sim, schedule)
        with pytest.raises(ValueError):
            churn.run(3)

    def test_all_leave_raises(self):
        sim = build_sim(num_clients=2)
        schedule = ChurnSchedule(initial_clients=[0]).add(1, 0, "leave")
        churn = ChurnSimulation(sim, schedule)
        with pytest.raises(RuntimeError):
            churn.run(2)

    def test_history_recorded(self):
        sim = build_sim()
        churn = ChurnSimulation(sim, ChurnSchedule(initial_clients=[0, 1, 2, 3]))
        history = churn.run(3)
        assert len(history) == 3
        assert all(0 <= r.global_accuracy <= 1 for r in history.rounds)

    def test_training_still_learns_under_churn(self):
        sim = build_sim(num_clients=4, seed=3)
        schedule = (
            ChurnSchedule(initial_clients=[0, 1])
            .add(2, 2, "join")
            .add(3, 0, "leave")
        )
        churn = ChurnSimulation(sim, schedule)
        history = churn.run(6)
        assert history.final_accuracy >= history.accuracies[0]
        assert history.final_accuracy > 0.6

    def test_invalid_rounds(self):
        sim = build_sim()
        churn = ChurnSimulation(sim, ChurnSchedule(initial_clients=[0]))
        with pytest.raises(ValueError):
            churn.run(0)


class TestChurnThroughTheSimulation:
    """Churn is a participation policy: a churned round is an ordinary
    simulation round, on the simulation's backend and transport."""

    SCHEDULE = [(1, 2, "join"), (2, 0, "leave"), (3, 3, "join")]

    def churned_run(self, backend=None):
        clients, test = make_blob_federation(4, per_client=25, test_size=50, seed=3)
        sim = FederatedSimulation(
            RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4),
            FederatedDataset(client_datasets=clients, test_set=test),
            FedAvgAggregator(),
            TrainConfig(epochs=1, batch_size=10, learning_rate=0.1),
            seed=3,
            backend=backend,
        )
        schedule = ChurnSchedule(initial_clients=[0, 1])
        for event in self.SCHEDULE:
            schedule.add(*event)
        churn = ChurnSimulation(sim, schedule)
        history = churn.run(5)
        assert sim.sampler is None  # the run's sampler is restored
        return history, sim.server.global_state, churn.activity_log

    def test_pool_run_equals_serial_and_records_transport(self):
        serial_history, serial_state, serial_log = self.churned_run()
        pool = PoolBackend(max_workers=2)
        try:
            pool_history, pool_state, pool_log = self.churned_run(pool)
        finally:
            pool.close()
        assert pool_log == serial_log == {
            0: [0, 1], 1: [0, 1, 2], 2: [1, 2], 3: [1, 2, 3], 4: [1, 2, 3],
        }
        assert pool_history.accuracies == serial_history.accuracies
        for key, value in serial_state.items():
            np.testing.assert_array_equal(pool_state[key], value)
        assert all(record.bytes_down > 0 for record in pool_history.rounds)
        assert all(record.bytes_up > 0 for record in pool_history.rounds)
