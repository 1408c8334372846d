"""Framed TCP transport: the runtime wire format over sockets.

The worker pool's pipes already speak a compact framed protocol —
protocol-5 pickles with out-of-band ndarray buffers, driven through the
two-method ``send_bytes``/``recv_bytes`` channel interface
(:mod:`repro.runtime.wire`).  This module carries that exact interface
across the machine boundary:

:class:`SocketChannel`
    One TCP connection presenting ``send_bytes``/``recv_bytes``.  Each
    call moves one **integrity-checked, length-prefixed frame**
    (``<Q`` little-endian byte count + ``<I`` CRC32 of the payload, then
    exactly that many payload bytes), so the stream-oriented socket
    behaves like a message-oriented pipe and
    :func:`repro.runtime.wire.send_payload` /
    :func:`~repro.runtime.wire.recv_payload` work unchanged.  The CRC is
    what turns silent on-wire corruption into a *typed* failure: a frame
    whose payload does not hash to its header raises
    :class:`FrameCorruption` instead of surfacing as pickle garbage (or,
    far worse, as a silently-wrong model state).  Frames above
    ``max_frame_bytes`` are refused on both sides
    (:class:`PayloadTooLarge`) — after refusing to read a frame the
    stream cannot be resynchronised, so the caller must drop the peer.
    A clean close or a connection torn **mid-frame** surfaces as
    :class:`EOFError`, mirroring a dead pipe; a peer that stalls
    mid-frame for longer than ``frame_timeout`` raises
    :class:`WireError` instead of hanging the reader forever.

    The frame layout is versioned separately from the payload pickling:
    :data:`FRAME_VERSION` travels in the handshake hello and a mismatch
    is rejected by name.  v1 (pre-CRC) and v2 peers cannot even parse
    each other's frames, so both sides of a deployment must upgrade
    together — the handshake reject is best-effort documentation, not a
    negotiation.

:func:`client_handshake` / :func:`server_handshake`
    The first frames each side exchanges: magic + protocol/frame version
    + identity, optionally followed by a shared-secret HMAC challenge.
    A version or magic mismatch is rejected explicitly
    (:class:`ProtocolMismatch`) before any pickle payload is trusted;
    when the coordinator holds an ``auth_token`` it issues a random
    challenge and only peers producing the matching
    HMAC-SHA256 digest are welcomed (:class:`AuthenticationError` with a
    readable reason otherwise).  The token never travels on the wire.

Chaos seam: a :class:`~repro.cluster.chaos.NetworkFaultInjector` passed
as ``chaos=`` sits *inside* the send path, below the CRC computation —
exactly where a flaky network lives — so injected byte corruption is
detected by the real checksum path, injected tears look like genuine
mid-frame disconnects, and injected partitions look like an unreachable
host.  See :mod:`repro.cluster.chaos`.

Security note: like the pool's pipes, the payload encoding is pickle —
connect only peers you trust (the coordinator binds 127.0.0.1 by
default; the HMAC handshake authenticates peers but does not encrypt
the stream, exactly like the MPI/gloo transports of mainstream training
stacks).
"""

from __future__ import annotations

import hashlib
import hmac as hmac_module
import os
import socket
import struct
import threading
import time
import zlib
from typing import Any, Dict, Optional, Tuple

from ..runtime.wire import WIRE_PROTOCOL_VERSION, recv_payload, send_payload

#: First bytes of every handshake — identifies the repro cluster protocol.
MAGIC = "repro-cluster"

#: Version of the on-wire *frame* layout (length prefix + CRC32 +
#: payload).  Distinct from :data:`~repro.runtime.wire.WIRE_PROTOCOL_VERSION`
#: (the payload pickling + broadcast grammar shared with the pool's
#: pipes): pipes are reliable and carry no checksum, sockets are not and
#: do.  v2 added the CRC32 integrity word; v1 peers cannot parse v2
#: frames (and vice versa), so the handshake refuses a mismatch by name.
FRAME_VERSION = 2

#: Refuse single frames above this size by default (1 GiB).  Model states
#: and encoded deltas are orders of magnitude smaller; a larger prefix is
#: almost certainly stream corruption or a hostile peer.
DEFAULT_MAX_FRAME_BYTES = 1 << 30

#: How long a started frame may stall before the reader declares the
#: peer wedged.  Distinct from the idle wait between frames, which the
#: caller controls per recv (heartbeat scheduling needs short idle
#: timeouts, but a frame that began arriving should finish promptly).
DEFAULT_FRAME_TIMEOUT = 60.0

#: Upper bound on any single handshake wait.  Handshake messages are a
#: few tiny frames, so a peer (or coordinator) that stays silent this
#: long is treated as a failed dial — without this bound, one dropped
#: hello under chaos would park the accept path for the full (large-
#: payload-sized) frame timeout.
HANDSHAKE_TIMEOUT = 10.0

#: Environment variable consulted for the cluster's shared auth secret
#: when no explicit token is passed (agent CLI and ClusterBackend).
AUTH_TOKEN_ENV_VAR = "REPRO_CLUSTER_TOKEN"

# Frame header: payload byte count + CRC32 of the payload bytes.
_HEADER = struct.Struct("<QI")


class WireError(RuntimeError):
    """The framed TCP transport failed (stall, corruption, protocol)."""


class ProtocolMismatch(WireError):
    """Peer speaks a different wire protocol (or is not a repro peer)."""


class AuthenticationError(ProtocolMismatch):
    """The shared-secret HMAC challenge failed (wrong or missing token)."""


class PayloadTooLarge(WireError):
    """A frame exceeded the channel's ``max_frame_bytes`` budget."""


class ChannelTimeout(WireError):
    """No frame started arriving within the requested idle timeout."""


class FrameCorruption(WireError):
    """A frame's payload failed its CRC32 check (or a received message
    could not be decoded at all — a desynchronised stream).  Provably a
    transport fault, never the task's: handlers requeue the peer's work
    **charge-free** instead of spending its retry budget."""


class SocketChannel:
    """Integrity-checked, length-prefixed frames over one TCP socket.

    Presents the ``send_bytes``/``recv_bytes`` channel interface of a
    :class:`multiprocessing.connection.Connection`, so the runtime's
    payload framing (and therefore the pool's entire broadcast protocol)
    runs over it unmodified.  Counts bytes both ways — the numbers the
    coordinator's per-peer :class:`~repro.runtime.wire.TransportStats`
    are built from.

    ``chaos`` (a :class:`~repro.cluster.chaos.NetworkFaultInjector`)
    makes the *send* path deterministically unreliable for chaos tests;
    the receive path always verifies, which is the half under test.
    """

    def __init__(
        self,
        sock: socket.socket,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        frame_timeout: float = DEFAULT_FRAME_TIMEOUT,
        chaos: Optional[Any] = None,
    ) -> None:
        if max_frame_bytes < 1:
            raise ValueError(f"max_frame_bytes must be >= 1, got {max_frame_bytes}")
        self._sock = sock
        self.max_frame_bytes = max_frame_bytes
        self.frame_timeout = frame_timeout
        self.chaos = chaos
        self.bytes_sent = 0
        self.bytes_received = 0
        # Message-level send lock: the agent's heartbeat thread and its
        # task loop share one socket, and a multi-frame payload must not
        # interleave with a heartbeat's frames (see send_message).
        self.send_lock = threading.RLock()
        # Nagle off: the protocol is latency-sensitive request/response
        # (pull → task → result), not bulk throughput.
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, AttributeError):
            pass

    # -- the pipe-compatible channel interface -------------------------
    def send_bytes(self, data) -> None:
        view = memoryview(data)
        if view.nbytes > self.max_frame_bytes:
            raise PayloadTooLarge(
                f"refusing to send a {view.nbytes}-byte frame "
                f"(max_frame_bytes={self.max_frame_bytes})"
            )
        header = _HEADER.pack(view.nbytes, zlib.crc32(view))
        fault = self.chaos.next_send_fault() if self.chaos is not None else None
        self._sock.settimeout(self.frame_timeout)
        try:
            if fault is None:
                self._sock.sendall(header)
                self._sock.sendall(view)
                wrote = len(header) + view.nbytes
            else:
                wrote = self._send_with_fault(header, view, fault)
        except socket.timeout:
            raise WireError(
                f"peer stalled for {self.frame_timeout}s mid-send"
            ) from None
        self.bytes_sent += wrote

    def _send_with_fault(self, header: bytes, view: memoryview, fault) -> int:
        """Transmit (or mis-transmit) one frame under an injected fault.
        Returns the bytes actually written to the wire."""
        kind, param = fault
        if kind == "drop":
            return 0  # the network ate the whole frame
        if kind == "delay":
            time.sleep(param)
            self._sock.settimeout(self.frame_timeout)  # sleep reset nothing,
            self._sock.sendall(header)  # but be explicit about the budget
            self._sock.sendall(view)
            return len(header) + view.nbytes
        if kind == "duplicate":
            for _ in range(2):
                self._sock.sendall(header)
                self._sock.sendall(view)
            return 2 * (len(header) + view.nbytes)
        if kind == "corrupt":
            # Flip one byte *after* the CRC was computed — the receiver's
            # checksum is what must catch it.  Empty payloads corrupt the
            # CRC word itself instead.
            if view.nbytes:
                damaged = bytearray(view)
                offset = int(param * view.nbytes) % view.nbytes
                damaged[offset] ^= 0xFF
                self._sock.sendall(header)
                self._sock.sendall(damaged)
            else:
                damaged_header = bytearray(header)
                damaged_header[-1] ^= 0xFF
                self._sock.sendall(damaged_header)
            return len(header) + view.nbytes
        if kind == "tear":
            # Deliver the header plus a prefix of the payload, then tear
            # the connection down hard — the receiver sees a genuine
            # mid-frame EOF.
            keep = int(param * view.nbytes) if view.nbytes else 0
            self._sock.sendall(header)
            if keep:
                self._sock.sendall(view[:keep])
            self.close()
            raise WireError("chaos: connection torn mid-frame") from None
        if kind == "partition":
            self.close()
            raise WireError(
                f"chaos: network partition ({param:.2f}s)"
            ) from None
        raise ValueError(f"unknown injected fault kind {kind!r}")

    def recv_bytes(self, timeout: Optional[float] = None) -> bytes:
        """One frame's payload.  ``timeout`` bounds the idle wait for the
        frame to *start*; once its first bytes arrive, completion is
        governed by ``frame_timeout``.  Raises :class:`ChannelTimeout` on
        an idle timeout, :class:`EOFError` on a closed/torn connection,
        :class:`PayloadTooLarge` on an over-budget prefix, and
        :class:`FrameCorruption` when the payload fails its CRC32."""
        header = self._recv_exact(_HEADER.size, idle_timeout=timeout)
        length, crc = _HEADER.unpack(header)
        if length > self.max_frame_bytes:
            raise PayloadTooLarge(
                f"peer announced a {length}-byte frame "
                f"(max_frame_bytes={self.max_frame_bytes})"
            )
        payload = self._recv_exact(length) if length else b""
        if zlib.crc32(payload) != crc:
            raise FrameCorruption(
                f"frame checksum mismatch on a {length}-byte frame"
            )
        self.bytes_received += _HEADER.size + length
        return payload

    def _recv_exact(self, count: int, idle_timeout: Optional[float] = None) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            # Idle timeout applies only before the first byte; once any
            # part of the frame arrived, a stall is a wedged peer.
            waiting_to_start = idle_timeout is not None and not chunks
            self._sock.settimeout(
                idle_timeout if waiting_to_start else self.frame_timeout
            )
            try:
                chunk = self._sock.recv(min(remaining, 1 << 20))
            except socket.timeout:
                if waiting_to_start:
                    raise ChannelTimeout(
                        f"no frame within {idle_timeout}s"
                    ) from None
                raise WireError(
                    f"peer stalled for {self.frame_timeout}s mid-frame "
                    f"({count - remaining}/{count} bytes received)"
                ) from None
            except OSError as exc:
                raise EOFError(f"connection lost mid-frame: {exc}") from None
            if not chunk:
                raise EOFError(
                    "connection closed mid-frame"
                    if chunks or idle_timeout is None
                    else "connection closed"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    # -- plumbing -------------------------------------------------------
    def fileno(self) -> int:
        """File descriptor, so ``multiprocessing.connection.wait`` /
        selectors can poll a mixed set of pipes and channels."""
        return self._sock.fileno()

    @property
    def peer_address(self) -> Optional[Tuple[str, int]]:
        try:
            return self._sock.getpeername()
        except OSError:
            return None

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __repr__(self) -> str:
        return f"SocketChannel(peer={self.peer_address})"


def send_message(channel: SocketChannel, message: Any) -> int:
    """Send one protocol message (a plain tuple) as framed payload parts;
    returns the framed bytes written (length prefixes included).

    Holds the channel's message-level send lock across every frame of
    the payload, so concurrent senders (the agent's heartbeat thread vs
    its result loop) never interleave frames inside one message.
    """
    lock = getattr(channel, "send_lock", None)
    if lock is None:
        before = channel.bytes_sent
        send_payload(channel, message)
        return channel.bytes_sent - before
    with lock:
        before = channel.bytes_sent
        send_payload(channel, message)
        return channel.bytes_sent - before


def recv_message(
    channel: SocketChannel, timeout: Optional[float] = None
) -> Tuple[Any, int]:
    """Receive one protocol message; returns ``(message, framed bytes)``.

    ``timeout`` bounds the idle wait for the message to start arriving
    (:class:`ChannelTimeout` when nothing does) — the knob the agent's
    heartbeat loop is built on.  A message whose frames arrive intact
    (every CRC passes) but cannot be decoded — a desynchronised stream
    after a dropped or duplicated frame — raises
    :class:`FrameCorruption`, so callers see one typed failure for every
    flavour of stream damage.
    """
    before = channel.bytes_received
    # Thread the idle timeout through the first recv_bytes call only:
    # once the payload's first frame (the buffer-count header) arrives,
    # the remaining frames are mid-message and governed by frame_timeout.
    first = channel.recv_bytes(timeout=timeout)
    try:
        obj, _ = recv_payload(_PrefetchedChannel(channel, first))
    except (EOFError, WireError):
        raise
    except Exception as exc:
        # struct.error / pickle garbage: individually-valid frames that
        # do not assemble into a message — the stream lost a frame (or
        # gained a duplicate) and cannot be resynchronised.
        raise FrameCorruption(
            f"undecodable message ({type(exc).__name__}: {exc})"
        ) from None
    return obj, channel.bytes_received - before


class _PrefetchedChannel:
    """Replay one already-received frame, then delegate to the channel —
    lets :func:`recv_message` apply an idle timeout to the first frame of
    a payload without teaching ``recv_payload`` about timeouts."""

    def __init__(self, channel: SocketChannel, first: bytes) -> None:
        self._channel = channel
        self._first = first

    def recv_bytes(self) -> bytes:
        if self._first is not None:
            frame, self._first = self._first, None
            return frame
        return self._channel.recv_bytes()


def connect(
    address: Tuple[str, int],
    timeout: float = 20.0,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    frame_timeout: float = DEFAULT_FRAME_TIMEOUT,
    chaos: Optional[Any] = None,
) -> SocketChannel:
    """Dial a coordinator; returns a connected :class:`SocketChannel`."""
    sock = socket.create_connection(address, timeout=timeout)
    return SocketChannel(
        sock,
        max_frame_bytes=max_frame_bytes,
        frame_timeout=frame_timeout,
        chaos=chaos,
    )


def listen(
    host: str = "127.0.0.1", port: int = 0, backlog: int = 64
) -> socket.socket:
    """A listening TCP socket (``port=0`` → ephemeral, read it back via
    ``sock.getsockname()[1]``)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
def _auth_digest(token: str, nonce: str) -> str:
    """The challenge response: HMAC-SHA256 over magic + nonce, keyed by
    the shared token.  The token itself never travels on the wire."""
    return hmac_module.new(
        token.encode("utf-8"),
        f"{MAGIC}:{nonce}".encode("utf-8"),
        hashlib.sha256,
    ).hexdigest()


def client_handshake(
    channel: SocketChannel,
    identity: Dict[str, Any],
    auth_token: Optional[str] = None,
) -> Dict[str, Any]:
    """Agent side: announce magic/version/identity, answer an HMAC
    challenge if the coordinator issues one, await the verdict.

    Returns the coordinator's welcome info; raises
    :class:`AuthenticationError` when the challenge fails (no token, or
    the wrong one) and :class:`ProtocolMismatch` when rejected for
    version skew, when the far side is not a repro coordinator at all,
    or when a challenge or welcome arrives malformed.
    """
    send_message(
        channel,
        (
            "hello",
            {
                "magic": MAGIC,
                "protocol": WIRE_PROTOCOL_VERSION,
                "frame": FRAME_VERSION,
                **identity,
            },
        ),
    )
    # Same bound as the server side: if the hello (or the verdict) was
    # lost, fail fast and let the reconnect loop re-dial instead of
    # waiting out the large-payload frame timeout.
    idle = min(
        getattr(channel, "frame_timeout", None) or DEFAULT_FRAME_TIMEOUT,
        HANDSHAKE_TIMEOUT,
    )
    try:
        reply, _ = recv_message(channel, timeout=idle)
    except (EOFError, WireError) as exc:
        raise ProtocolMismatch(f"handshake failed: {exc}") from None
    if isinstance(reply, tuple) and reply and reply[0] == "challenge":
        if auth_token is None:
            raise AuthenticationError(
                "coordinator requires authentication — pass --auth-token "
                f"or set {AUTH_TOKEN_ENV_VAR}"
            )
        nonce = reply[1] if len(reply) > 1 else None
        if not isinstance(nonce, str) or not nonce.isascii():
            raise ProtocolMismatch(f"malformed challenge: {reply!r}")
        send_message(channel, ("auth", _auth_digest(auth_token, nonce)))
        try:
            reply, _ = recv_message(channel, timeout=idle)
        except (EOFError, WireError) as exc:
            raise ProtocolMismatch(f"handshake failed: {exc}") from None
    if not isinstance(reply, tuple) or not reply or reply[0] != "welcome":
        reason = reply[1] if isinstance(reply, tuple) and len(reply) > 1 else reply
        if isinstance(reason, str) and "authentication" in reason:
            raise AuthenticationError(f"coordinator rejected handshake: {reason}")
        raise ProtocolMismatch(f"coordinator rejected handshake: {reason}")
    if len(reply) < 2 or not isinstance(reply[1], dict):
        raise ProtocolMismatch(f"malformed welcome: {reply!r}")
    return reply[1]


def server_handshake(
    channel: SocketChannel, auth_token: Optional[str] = None
) -> Dict[str, Any]:
    """Coordinator side: verify the peer's hello, optionally challenge
    it with the shared secret, reply welcome/reject.

    Returns the peer's identity dict on success.  On mismatch, sends an
    explicit ``("reject", reason)`` so the far side can report *why*
    before both sides drop the connection, then raises
    :class:`ProtocolMismatch` (or :class:`AuthenticationError` when the
    HMAC challenge fails — the reason deliberately never says whether
    the token was absent or merely wrong).
    """
    # A peer that connected but never manages a valid hello (lost or
    # garbled frames) must not stall the accept path: handshakes are a
    # few tiny frames, so they get their own bound, far below the frame
    # timeout a gigabyte model payload needs.
    idle = min(
        getattr(channel, "frame_timeout", None) or DEFAULT_FRAME_TIMEOUT,
        HANDSHAKE_TIMEOUT,
    )
    try:
        hello, _ = recv_message(channel, timeout=idle)
    except Exception as exc:
        raise ProtocolMismatch(f"no valid hello: {exc}") from None
    info = hello[1] if isinstance(hello, tuple) and len(hello) > 1 else {}
    if (
        not isinstance(hello, tuple)
        or not hello
        or hello[0] != "hello"
        or not isinstance(info, dict)
        or info.get("magic") != MAGIC
    ):
        _try_send(channel, ("reject", "not a repro-cluster peer"))
        raise ProtocolMismatch("peer did not send a repro-cluster hello")
    if info.get("protocol") != WIRE_PROTOCOL_VERSION:
        reason = (
            f"wire protocol mismatch: coordinator speaks "
            f"v{WIRE_PROTOCOL_VERSION}, peer v{info.get('protocol')}"
        )
        _try_send(channel, ("reject", reason))
        raise ProtocolMismatch(reason)
    if info.get("frame", 1) != FRAME_VERSION:
        reason = (
            f"frame layout mismatch: coordinator frames are "
            f"v{FRAME_VERSION} (CRC32-checked), peer announced "
            f"v{info.get('frame', 1)}"
        )
        _try_send(channel, ("reject", reason))
        raise ProtocolMismatch(reason)
    if auth_token is not None:
        nonce = os.urandom(16).hex()
        send_message(channel, ("challenge", nonce))
        try:
            answer, _ = recv_message(channel, timeout=idle)
        except (EOFError, WireError) as exc:
            raise AuthenticationError(f"no challenge answer: {exc}") from None
        digest = (
            answer[1]
            if isinstance(answer, tuple) and len(answer) > 1 and answer[0] == "auth"
            else ""
        )
        # compare_digest raises TypeError on a non-ASCII str: such an
        # answer is just a wrong one.
        if (
            not isinstance(digest, str)
            or not digest.isascii()
            or not hmac_module.compare_digest(digest, _auth_digest(auth_token, nonce))
        ):
            reason = "authentication failed (shared-secret HMAC mismatch)"
            _try_send(channel, ("reject", reason))
            raise AuthenticationError(reason)
    send_message(
        channel,
        ("welcome", {"protocol": WIRE_PROTOCOL_VERSION, "frame": FRAME_VERSION}),
    )
    return info


def _try_send(channel: SocketChannel, message: Any) -> None:
    try:
        send_message(channel, message)
    except (WireError, OSError):
        pass
