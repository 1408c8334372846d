"""The runtime's payload framing and transport byte accounting.

``tests/runtime/test_pool_transport.py`` and ``tests/cluster/test_wire.py``
send payloads over real pipes and sockets; these tests read the frames
off an in-memory channel, so the frame layout itself (buffer count, head,
one part per out-of-band array) and the byte counts both ends report are
checked directly.
"""

import struct

import numpy as np
import pytest

from repro.runtime import TransportStats
from repro.runtime.wire import recv_payload, send_payload


class RecordingChannel:
    """A ``send_bytes`` / ``recv_bytes`` channel over a list of parts."""

    def __init__(self):
        self.parts = []

    def send_bytes(self, data):
        self.parts.append(bytes(data))

    def recv_bytes(self):
        return self.parts.pop(0)


def roundtrip(obj):
    channel = RecordingChannel()
    sent = send_payload(channel, obj)
    frame = list(channel.parts)
    received, read = recv_payload(channel)
    assert channel.parts == []
    return received, sent, read, frame


class TestFraming:
    @pytest.mark.parametrize(
        "dtype", [np.float64, np.float32, np.int64, np.uint8, np.bool_]
    )
    def test_array_roundtrips_exactly_and_counts_agree(self, dtype):
        array = (np.arange(60).reshape(6, 10) % 7).astype(dtype)
        received, sent, read, frame = roundtrip({"w": array})
        assert sent == read == sum(len(part) for part in frame)
        assert received["w"].dtype == array.dtype
        np.testing.assert_array_equal(received["w"], array)

    def test_each_contiguous_array_is_its_own_part(self):
        arrays = [np.full((50, 20), float(i)) for i in range(3)]
        _, _, _, frame = roundtrip({"a": arrays[0], "b": arrays[1], "c": arrays[2]})
        (count,) = struct.unpack("<I", frame[0])
        assert count == 3 and len(frame) == 2 + 3
        assert sorted(len(part) for part in frame[2:]) == [arrays[0].nbytes] * 3
        assert len(frame[1]) < arrays[0].nbytes

    def test_plain_objects_travel_in_band(self):
        payload = {"round": 3, "clients": [1, 2, 5], "name": "fedavg"}
        received, sent, _, frame = roundtrip(payload)
        assert struct.unpack("<I", frame[0]) == (0,) and len(frame) == 2
        assert received == payload
        assert sent == 4 + len(frame[1])

    def test_received_arrays_are_read_only_views(self):
        received, _, _, _ = roundtrip({"w": np.ones((8, 8))})
        assert not received["w"].flags.writeable
        with pytest.raises(ValueError):
            received["w"][0, 0] = 2.0

    def test_non_contiguous_array_roundtrips(self):
        base = np.arange(120, dtype=np.float64).reshape(10, 12)
        view = base[::2, 1::3]
        received, sent, read, _ = roundtrip(view)
        assert sent == read
        np.testing.assert_array_equal(received, view)


class TestTransportStats:
    def test_starts_empty(self):
        stats = TransportStats()
        assert stats.bytes_total == 0
        assert set(stats.as_dict().values()) == {0}

    def test_bytes_total_is_down_plus_up(self):
        assert TransportStats(bytes_down=7, bytes_up=5).bytes_total == 12

    def test_add_accumulates_every_field(self):
        total = TransportStats(1, 2, 3, 4, 5, 6)
        total.add(TransportStats(10, 20, 30, 40, 50, 60))
        assert total == TransportStats(11, 22, 33, 44, 55, 66)

    def test_as_dict_reports_every_counter_and_the_total(self):
        stats = TransportStats(
            bytes_down=100, bytes_up=40, broadcast_full=1,
            broadcast_delta=2, broadcast_ref=3, inline_tasks=4,
        )
        assert stats.as_dict() == {
            "bytes_down": 100,
            "bytes_up": 40,
            "bytes_total": 140,
            "broadcast_full": 1,
            "broadcast_delta": 2,
            "broadcast_ref": 3,
            "inline_tasks": 4,
        }
