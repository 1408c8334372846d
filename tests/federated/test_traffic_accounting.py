"""How one task batch's model traffic is priced (``RoundRecord`` bytes).

``account_model_traffic`` is what every ``bytes_down`` / ``bytes_up`` in
a round record and in ``transport_report()`` is built from: a pool
backend's real pipe bytes down, or every task's dense states where the
backend ships them whole; and the encoded return size up, the same on
every backend.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.federated.simulation import (
    _result_wire_nbytes,
    _task_state_nbytes,
    account_model_traffic,
)
from repro.nn.models import MLP
from repro.runtime import TransportStats, dense_nbytes
from repro.runtime.dispatch import CARRIED_STATE_FIELDS
from repro.training import TrainConfig
from repro.unlearning import GoldfishConfig, federated_goldfish, federated_rapid_retrain

from ..conftest import make_blob_federation

STATE = {"w": np.zeros((4, 3)), "b": np.zeros(3, dtype=np.float32)}
OTHER = {"w": np.zeros(7, dtype=np.int64)}


def task(**fields):
    return SimpleNamespace(**fields)


class TestTaskStateBytes:
    @pytest.mark.parametrize("field_name", CARRIED_STATE_FIELDS)
    def test_each_state_field_is_charged_dense(self, field_name):
        assert _task_state_nbytes(task(**{field_name: STATE})) == dense_nbytes(STATE)

    def test_fields_add_up(self):
        both = task(model_state=STATE, teacher_state=OTHER)
        assert _task_state_nbytes(both) == dense_nbytes(STATE) + dense_nbytes(OTHER)

    def test_teacher_logits_ride_along(self):
        logits = np.zeros((5, 10))
        carried = task(model_state=STATE, teacher_logits=logits)
        assert _task_state_nbytes(carried) == dense_nbytes(STATE) + logits.nbytes

    def test_the_fim_rides_along(self):
        fim = {"fim": [np.zeros(6), None, np.zeros((2, 2), dtype=np.float32)],
               "steps": 4}
        carried = task(model_state=STATE, fim_state=fim)
        assert _task_state_nbytes(carried) == dense_nbytes(STATE) + 6 * 8 + 4 * 4

    def test_a_task_without_states_costs_nothing(self):
        assert _task_state_nbytes(task(model_state=None, other=STATE)) == 0


class TestResultBytes:
    def test_encoded_size_wins_over_the_state(self):
        assert _result_wire_nbytes(SimpleNamespace(update_nbytes=11, state=STATE)) == 11

    def test_zero_encoded_bytes_are_not_replaced(self):
        assert _result_wire_nbytes(SimpleNamespace(update_nbytes=0, state=STATE)) == 0

    def test_dense_state_without_a_codec(self):
        result = SimpleNamespace(state=STATE)
        assert _result_wire_nbytes(result) == dense_nbytes(STATE)

    def test_non_state_result_costs_nothing(self):
        assert _result_wire_nbytes(SimpleNamespace(state=[1, 2, 3])) == 0

    def test_protocol_state_rides_back(self):
        logits = np.zeros((5, 10))
        encoded = SimpleNamespace(update_nbytes=11, extra={"teacher_logits": logits})
        assert _result_wire_nbytes(encoded) == 11 + logits.nbytes
        dense = SimpleNamespace(state=STATE, extra={"fim": [np.zeros(3), None],
                                                    "steps": 1})
        assert _result_wire_nbytes(dense) == dense_nbytes(STATE) + 3 * 8


class TestAccountModelTraffic:
    TASKS = [task(model_state=STATE), task(model_state=STATE, init_state=OTHER)]
    RESULTS = [SimpleNamespace(update_nbytes=5), SimpleNamespace(state=OTHER)]

    def test_whole_state_backends_charge_every_task(self):
        stats = account_model_traffic(object(), self.TASKS, self.RESULTS)
        assert stats.bytes_down == 2 * dense_nbytes(STATE) + dense_nbytes(OTHER)
        assert stats.broadcast_full == len(self.TASKS)
        assert stats.bytes_up == 5 + dense_nbytes(OTHER)

    def test_pool_backends_charge_their_pipe_bytes(self):
        pipe = TransportStats(bytes_down=123, bytes_up=999, broadcast_delta=1,
                              broadcast_ref=1)
        backend = SimpleNamespace(last_batch_stats=pipe)
        stats = account_model_traffic(backend, self.TASKS, self.RESULTS)
        assert stats.bytes_down == 123
        assert (stats.broadcast_full, stats.broadcast_delta, stats.broadcast_ref) == (0, 1, 1)
        # Uplink never takes the pipe's framing: it is the same on every backend.
        assert stats.bytes_up == 5 + dense_nbytes(OTHER)

    def test_the_backend_record_is_not_mutated(self):
        pipe = TransportStats(bytes_down=123)
        account_model_traffic(
            SimpleNamespace(last_batch_stats=pipe), self.TASKS, self.RESULTS
        )
        assert pipe == TransportStats(bytes_down=123)


def mlp_factory():
    return MLP(16, 3, np.random.default_rng(42))


class TestProtocolRoundsAreCharged:
    """Serial rounds of the unlearning protocols charge what their tasks
    carry: the model both ways, plus the FIM (B2) and the teacher's
    logits (Goldfish) in the direction each travels."""

    CONFIG = TrainConfig(epochs=1, batch_size=10, learning_rate=0.1)

    def build(self):
        clients, test = make_blob_federation(3, per_client=20, test_size=30, seed=0)
        sim = FederatedSimulation(
            mlp_factory, FederatedDataset(client_datasets=clients, test_set=test),
            FedAvgAggregator(), self.CONFIG, seed=0,
        )
        sim.run(1)
        sim.clients[0].request_deletion(np.arange(4))
        return sim

    def test_b2_charges_its_fim_down_and_up(self):
        sim = self.build()
        before = sim.transport_report()
        federated_rapid_retrain(sim, self.CONFIG, num_rounds=2)
        after = sim.transport_report()
        state = dense_nbytes(sim.server.global_state)
        fim = sum(param.data.nbytes for param in sim.global_model().parameters())
        # Round 0 carries no curvature yet; round 1 carries every
        # client's, and both rounds bring one back.
        assert after["bytes_down"] - before["bytes_down"] == 6 * state + 3 * fim
        assert after["bytes_up"] - before["bytes_up"] == 6 * state + 6 * fim

    def test_goldfish_charges_the_logits_it_returns(self):
        sim = self.build()
        before = sim.transport_report()["bytes_up"]
        retained = sum(len(client.active_dataset) for client in sim.clients)
        federated_goldfish(sim, GoldfishConfig(train=self.CONFIG), num_rounds=2)
        state = dense_nbytes(sim.server.global_state)
        # Round 0 returns the teacher's logits on D_r beside the student.
        assert sim.transport_report()["bytes_up"] - before == 6 * state + retained * 3 * 8
