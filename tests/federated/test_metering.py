"""Wire pricing of a model state."""

import numpy as np

from repro.federated import state_bytes


class TestStateBytes:
    def test_prices_float32_wire_format(self):
        state = {"w": np.zeros((10, 10)), "b": np.zeros(10)}
        assert state_bytes(state) == (100 + 10) * 4
