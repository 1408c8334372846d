"""The framed TCP transport: framing, timeouts, failure taxonomy, handshake.

Everything here runs over ``socket.socketpair`` — no listener, no
subprocesses — so the edge cases (torn frames, mid-frame disconnects,
oversized payloads, protocol mismatches) are exercised deterministically.
"""

import socket
import struct
import threading
import zlib

import numpy as np
import pytest

from repro.cluster.wire import (
    FRAME_VERSION,
    MAGIC,
    AuthenticationError,
    ChannelTimeout,
    FrameCorruption,
    PayloadTooLarge,
    ProtocolMismatch,
    SocketChannel,
    WireError,
    client_handshake,
    connect,
    listen,
    recv_message,
    send_message,
    server_handshake,
)
from repro.runtime.wire import WIRE_PROTOCOL_VERSION, recv_payload, send_payload


def _frame_header(nbytes: int, crc: int) -> bytes:
    """A raw v2 frame header: 8-byte length + 4-byte CRC32."""
    return struct.pack("<QI", nbytes, crc)


@pytest.fixture
def pair():
    left_sock, right_sock = socket.socketpair()
    left = SocketChannel(left_sock)
    right = SocketChannel(right_sock)
    yield left, right
    left.close()
    right.close()


class TestFraming:
    def test_payload_roundtrip_with_out_of_band_arrays(self, pair):
        left, right = pair
        payload = {
            "weights": np.arange(1000, dtype=np.float64).reshape(25, 40),
            "meta": {"round": 3, "clients": [1, 2]},
        }
        sent = send_payload(left, payload)
        received, got = recv_payload(right)
        assert sent == got
        assert sent >= payload["weights"].nbytes  # arrays actually travelled
        np.testing.assert_array_equal(received["weights"], payload["weights"])
        assert received["meta"] == payload["meta"]
        # The socket counters additionally include the length prefixes.
        assert left.bytes_sent > sent
        assert left.bytes_sent == right.bytes_received

    def test_multiple_frames_queue_and_deframe_in_order(self, pair):
        left, right = pair
        for index in range(5):
            send_message(left, ("ping", index))
        for index in range(5):
            message, _ = recv_message(right)
            assert message == ("ping", index)

    def test_empty_frame_roundtrips(self, pair):
        left, right = pair
        left.send_bytes(b"")
        assert right.recv_bytes() == b""


class TestChannel:
    def test_frame_budget_must_be_positive(self):
        left, right = socket.socketpair()
        try:
            with pytest.raises(ValueError, match="max_frame_bytes"):
                SocketChannel(left, max_frame_bytes=0)
        finally:
            left.close()
            right.close()

    def test_closed_channel_has_no_peer(self, pair):
        left, _ = pair
        left.close()
        assert left.peer_address is None

    def test_listen_and_connect_over_loopback(self):
        listener = listen(port=0)
        try:
            dialed = connect(listener.getsockname(), timeout=5.0)
            accepted = SocketChannel(listener.accept()[0])
            try:
                send_message(dialed, ("ping", 1))
                message, nbytes = recv_message(accepted)
                assert message == ("ping", 1)
                assert nbytes == dialed.bytes_sent == accepted.bytes_received
            finally:
                dialed.close()
                accepted.close()
        finally:
            listener.close()


class TestFailureTaxonomy:
    def test_clean_close_is_eof(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(EOFError):
            right.recv_bytes()

    def test_disconnect_mid_frame_is_eof(self, pair):
        left, right = pair
        # Announce a 1000-byte frame but deliver only 10 bytes of it.
        left._sock.sendall(_frame_header(1000, 0))
        left._sock.sendall(b"x" * 10)
        left.close()
        with pytest.raises(EOFError, match="mid-frame"):
            right.recv_bytes()

    def test_torn_length_prefix_is_eof(self, pair):
        left, right = pair
        left._sock.sendall(b"\x04\x00")  # 2 of the 12 header bytes
        left.close()
        with pytest.raises(EOFError):
            right.recv_bytes()

    def test_mid_frame_stall_raises_wire_error_not_hang(self, pair):
        left, right = pair
        right.frame_timeout = 0.1
        left._sock.sendall(_frame_header(100, 0))  # frame never arrives
        with pytest.raises(WireError, match="stalled"):
            right.recv_bytes()

    def test_idle_timeout_is_distinct_from_stall(self, pair):
        _, right = pair
        with pytest.raises(ChannelTimeout):
            right.recv_bytes(timeout=0.05)

    def test_oversized_send_refused_locally(self, pair):
        left, _ = pair
        left.max_frame_bytes = 64
        with pytest.raises(PayloadTooLarge):
            left.send_bytes(b"x" * 65)
        assert left.bytes_sent == 0  # nothing hit the wire

    def test_oversized_recv_refused_by_prefix(self, pair):
        left, right = pair
        right.max_frame_bytes = 64
        left.send_bytes(b"y" * 1000)
        with pytest.raises(PayloadTooLarge, match="announced"):
            right.recv_bytes()


class TestIntegrity:
    def test_crc_mismatch_raises_frame_corruption(self, pair):
        left, right = pair
        payload = b"precious bits"
        left._sock.sendall(
            _frame_header(len(payload), zlib.crc32(payload) ^ 0xDEAD) + payload
        )
        with pytest.raises(FrameCorruption, match="checksum"):
            right.recv_bytes()

    def test_single_bit_flip_on_wire_detected(self, pair):
        left, right = pair
        payload = bytearray(b"federated weights")
        header = _frame_header(len(payload), zlib.crc32(bytes(payload)))
        payload[5] ^= 0x01  # flipped after the checksum was computed
        left._sock.sendall(header + bytes(payload))
        with pytest.raises(FrameCorruption):
            right.recv_bytes()

    def test_intact_frame_passes_crc(self, pair):
        left, right = pair
        payload = b"federated weights"
        left._sock.sendall(_frame_header(len(payload), zlib.crc32(payload)) + payload)
        assert right.recv_bytes() == payload

    def test_undecodable_message_is_frame_corruption(self, pair):
        left, right = pair
        # A frame whose CRC is fine but whose content is not a payload
        # header: the stream is desynchronised (lost/duplicated frame).
        left.send_bytes(b"not-a-payload-header")
        with pytest.raises(FrameCorruption, match="undecodable"):
            recv_message(right)


class TestHandshake:
    def test_matching_versions_exchange_identity(self, pair):
        left, right = pair
        send_message(
            left,
            (
                "hello",
                {
                    "magic": MAGIC,
                    "protocol": WIRE_PROTOCOL_VERSION,
                    "frame": FRAME_VERSION,
                    "agent_id": "n1",
                    "capacity": 2,
                },
            ),
        )
        info = server_handshake(right)
        assert info["agent_id"] == "n1"
        assert info["capacity"] == 2
        reply, _ = recv_message(left)
        assert reply[0] == "welcome"
        assert reply[1]["protocol"] == WIRE_PROTOCOL_VERSION
        assert reply[1]["frame"] == FRAME_VERSION

    def test_version_skew_rejected_with_reason(self, pair):
        left, right = pair
        send_message(
            left,
            ("hello", {"magic": MAGIC, "protocol": WIRE_PROTOCOL_VERSION + 1}),
        )
        with pytest.raises(ProtocolMismatch, match="mismatch"):
            server_handshake(right)
        # The far side learns *why* before the connection drops.
        reply, _ = recv_message(left)
        assert reply[0] == "reject"
        assert "mismatch" in reply[1]

    def test_a_v3_peer_is_refused(self, pair):
        # v4 items carry a tuple of store sends where v3 carried one
        # broadcast: a v3 agent would misread every task.
        assert WIRE_PROTOCOL_VERSION == 4
        left, right = pair
        send_message(
            left, ("hello", {"magic": MAGIC, "protocol": 3, "frame": FRAME_VERSION})
        )
        with pytest.raises(ProtocolMismatch, match="v4, peer v3"):
            server_handshake(right)
        reply, _ = recv_message(left)
        assert reply[0] == "reject"

    def test_non_repro_peer_rejected(self, pair):
        left, right = pair
        send_message(left, ("hello", {"magic": "something-else", "protocol": 1}))
        with pytest.raises(ProtocolMismatch, match="hello"):
            server_handshake(right)

    def test_client_side_surfaces_rejection(self, pair):
        left, right = pair
        # Run the server side first so its verdict is buffered for the
        # client (socketpair buffers both directions independently).
        send_message(
            left,
            ("hello", {"magic": MAGIC, "protocol": WIRE_PROTOCOL_VERSION + 7}),
        )
        with pytest.raises(ProtocolMismatch):
            server_handshake(right)
        # Now exercise client_handshake against the buffered reject: its
        # own hello goes into the (dead) right side harmlessly.
        with pytest.raises(ProtocolMismatch, match="rejected"):
            client_handshake(left, {"agent_id": "n2"})

    def test_frame_layout_skew_rejected_by_name(self, pair):
        left, right = pair
        # A v1 peer never sent ``frame`` at all; the server must name the
        # frame layout (not the wire protocol) in its reject.
        send_message(
            left, ("hello", {"magic": MAGIC, "protocol": WIRE_PROTOCOL_VERSION})
        )
        with pytest.raises(ProtocolMismatch, match="frame layout"):
            server_handshake(right)
        reply, _ = recv_message(left)
        assert reply[0] == "reject"
        assert "CRC32" in reply[1]


class TestAuthentication:
    def _client(self, channel, token):
        """Run client_handshake in a thread, capturing its outcome."""
        box = {}

        def go():
            try:
                box["welcome"] = client_handshake(
                    channel, {"agent_id": "n1"}, auth_token=token
                )
            except Exception as exc:  # surfaced by the test body
                box["error"] = exc

        thread = threading.Thread(target=go, daemon=True)
        thread.start()
        return thread, box

    def test_shared_secret_admits_peer(self, pair):
        left, right = pair
        thread, box = self._client(left, "s3cret")
        info = server_handshake(right, auth_token="s3cret")
        thread.join(timeout=5.0)
        assert info["agent_id"] == "n1"
        assert "error" not in box

    def test_wrong_secret_rejected_both_sides(self, pair):
        left, right = pair
        thread, box = self._client(left, "wrong")
        with pytest.raises(AuthenticationError, match="HMAC"):
            server_handshake(right, auth_token="right")
        thread.join(timeout=5.0)
        assert isinstance(box.get("error"), AuthenticationError)

    def test_tokenless_client_told_how_to_authenticate(self, pair):
        left, right = pair
        # Stage the server's challenge, then run the client without a
        # token: it must fail fast and name the flag/env var to set.
        send_message(right, ("challenge", "ab" * 16))
        with pytest.raises(AuthenticationError, match="auth-token"):
            client_handshake(left, {"agent_id": "n1"})

    def test_non_ascii_answer_is_a_wrong_answer(self, pair):
        # hmac.compare_digest raises TypeError on a non-ASCII str; the
        # coordinator only survives errors from the wire taxonomy.
        left, right = pair
        send_message(left, ("hello", {
            "magic": MAGIC, "protocol": WIRE_PROTOCOL_VERSION,
            "frame": FRAME_VERSION,
        }))
        send_message(left, ("auth", "\u00e9" * 64))
        with pytest.raises(AuthenticationError, match="HMAC"):
            server_handshake(right, auth_token="s3cret")

    @pytest.mark.parametrize(
        "reply, reason",
        [
            (("welcome",), "malformed welcome"),
            (("welcome", ["not", "a", "dict"]), "malformed welcome"),
            (("challenge",), "malformed challenge"),
            (("challenge", 1234), "malformed challenge"),
            (("challenge", "\ud800"), "malformed challenge"),  # cannot be encoded
        ],
    )
    def test_malformed_reply_is_a_protocol_mismatch(self, pair, reply, reason):
        left, right = pair
        send_message(right, reply)
        with pytest.raises(ProtocolMismatch, match=reason):
            client_handshake(left, {"agent_id": "n1"}, auth_token="s3cret")

    def test_tokenless_server_skips_challenge(self, pair):
        left, right = pair
        thread, box = self._client(left, None)
        info = server_handshake(right)  # no auth_token: open cluster
        thread.join(timeout=5.0)
        assert info["agent_id"] == "n1"
        assert "error" not in box
