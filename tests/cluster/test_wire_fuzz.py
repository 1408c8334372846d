"""Generated handshake messages and raw frame bytes against the wire.

Two properties over ``socket.socketpair``:

* either side of the handshake, fed generated messages — nested tuples,
  dicts, str (lone surrogates included), bytes, int and None, shaped
  like hello / challenge answer / reply or not at all — returns or
  raises :class:`ProtocolMismatch` (``AuthenticationError`` is one),
  and never waits out more than its handshake bound;
* ``SocketChannel.recv_bytes`` over arbitrary bytes, well-formed frames
  among them, returns payloads or raises :class:`EOFError` or a
  :class:`WireError`, and finishes in bounded time.

Pickle decoding is not fuzzed: the transport trusts its peers by design
(see the security note in :mod:`repro.cluster.wire`).  CI runs both
properties a second time under ``--hypothesis-profile=soak``.
"""

import socket
import struct
import time
import zlib

from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.wire import (
    FRAME_VERSION,
    MAGIC,
    ProtocolMismatch,
    SocketChannel,
    WireError,
    client_handshake,
    send_message,
    server_handshake,
)
from repro.runtime.wire import WIRE_PROTOCOL_VERSION

from ..conftest import generated

# Short enough that a side waiting for a message that never comes gives
# up quickly; every wait in a handshake is bounded by it.
FRAME_TIMEOUT = 0.05
# Generous against scheduler noise, far below any unbounded hang.
TIME_BOUND_S = 5.0

texts = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["hello", "auth", "challenge", "welcome", "reject", MAGIC]),
    st.just("\ud800"),  # a lone surrogate: pickles, but does not encode
)
leaves = st.one_of(
    st.none(), st.integers(), texts, st.binary(max_size=8),
    st.sampled_from([WIRE_PROTOCOL_VERSION, FRAME_VERSION]),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(texts, st.integers()), children, max_size=3),
    ),
    max_leaves=12,
)


@st.composite
def hellos(draw):
    """A valid hello half of the time, so the challenge answer is
    reached; otherwise one spoiled in shape, head or one field."""
    info = {
        **draw(st.dictionaries(texts, values, max_size=2)),
        "magic": MAGIC,
        "protocol": WIRE_PROTOCOL_VERSION,
        "frame": FRAME_VERSION,
    }
    if not draw(st.booleans()):
        return ("hello", info)
    key = draw(st.sampled_from(["magic", "protocol", "frame"]))
    if draw(st.booleans()):
        del info[key]
    else:
        info[key] = draw(values)
    return draw(st.one_of(
        st.just(("hello", info)),
        texts.map(lambda head: (head, info)),
        st.sampled_from([("hello",), info]),
        values,
    ))


answers = st.one_of(
    st.tuples(st.just("auth"), texts),
    st.tuples(st.just("auth"), values),
    values,
)
replies = st.one_of(
    st.tuples(st.sampled_from(["challenge", "welcome", "reject"]), values),
    st.tuples(st.sampled_from(["challenge", "welcome", "reject"])),
    values,
)


def socket_pair():
    left, right = socket.socketpair()
    return (
        SocketChannel(left, frame_timeout=FRAME_TIMEOUT),
        SocketChannel(right, frame_timeout=FRAME_TIMEOUT),
    )


class TestHandshakeFuzz:
    @generated(150)
    @given(hello=hellos(), answer=answers, token=st.sampled_from([None, "s3cret"]))
    def test_server_side_raises_only_protocol_mismatch(self, hello, answer, token):
        peer, server = socket_pair()
        try:
            send_message(peer, hello)
            send_message(peer, answer)
            start = time.monotonic()
            try:
                info = server_handshake(server, auth_token=token)
            except ProtocolMismatch:
                pass
            else:
                # No generated answer carries the HMAC of a fresh nonce.
                assert token is None
                assert isinstance(info, dict) and info["magic"] == MAGIC
            assert time.monotonic() - start < TIME_BOUND_S
        finally:
            peer.close()
            server.close()

    @generated(150)
    @given(
        staged=st.lists(replies, min_size=0, max_size=2),
        token=st.sampled_from([None, "s3cret"]),
    )
    def test_client_side_raises_only_protocol_mismatch(self, staged, token):
        agent, coordinator = socket_pair()
        try:
            for reply in staged:
                send_message(coordinator, reply)
            start = time.monotonic()
            try:
                welcome = client_handshake(agent, {"agent_id": "n1"}, auth_token=token)
            except ProtocolMismatch:
                pass
            else:
                assert isinstance(welcome, dict)
            assert time.monotonic() - start < TIME_BOUND_S
        finally:
            agent.close()
            coordinator.close()


def frame(payload: bytes) -> bytes:
    return struct.pack("<QI", len(payload), zlib.crc32(payload)) + payload


chunks = st.one_of(st.binary(max_size=40), st.binary(max_size=40).map(frame))


class TestFrameFuzz:
    @generated(200)
    @given(stream=st.lists(chunks, max_size=6).map(b"".join))
    def test_raw_bytes_give_payloads_or_the_wire_taxonomy(self, stream):
        writer, reader = socket_pair()
        reader.max_frame_bytes = 1 << 16
        try:
            writer._sock.sendall(stream)
            writer.close()
            start = time.monotonic()
            received = 0
            # Each frame costs at least its 12-byte header, so the reader
            # hits the end of the stream within this many calls.
            for _ in range(len(stream) // 12 + 2):
                try:
                    payload = reader.recv_bytes()
                except (EOFError, WireError):
                    break
                received += 12 + len(payload)
                assert received <= len(stream)
            else:
                raise AssertionError("reader never reached the end of the stream")
            assert time.monotonic() - start < TIME_BOUND_S
        finally:
            writer.close()
            reader.close()
