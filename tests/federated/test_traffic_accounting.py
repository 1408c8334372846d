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

from repro.federated.simulation import (
    _TASK_STATE_FIELDS,
    _result_wire_nbytes,
    _task_state_nbytes,
    account_model_traffic,
)
from repro.runtime import TransportStats, dense_nbytes

STATE = {"w": np.zeros((4, 3)), "b": np.zeros(3, dtype=np.float32)}
OTHER = {"w": np.zeros(7, dtype=np.int64)}


def task(**fields):
    return SimpleNamespace(**fields)


class TestTaskStateBytes:
    @pytest.mark.parametrize("field_name", _TASK_STATE_FIELDS)
    def test_each_state_field_is_charged_dense(self, field_name):
        assert _task_state_nbytes(task(**{field_name: STATE})) == dense_nbytes(STATE)

    def test_fields_add_up(self):
        both = task(model_state=STATE, teacher_state=OTHER)
        assert _task_state_nbytes(both) == dense_nbytes(STATE) + dense_nbytes(OTHER)

    def test_teacher_logits_ride_along(self):
        logits = np.zeros((5, 10))
        carried = task(student_state=STATE, teacher_logits=logits)
        assert _task_state_nbytes(carried) == dense_nbytes(STATE) + logits.nbytes

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
