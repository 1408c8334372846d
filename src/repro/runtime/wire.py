"""The runtime's shared wire format: framed protocol-5 payloads + stats.

Every transport in the runtime — the worker pool's pipes
(:mod:`repro.runtime.pool`) and the cluster's TCP sockets
(:mod:`repro.cluster.wire`) — speaks the same payload encoding:

``[buffer count][pickle head][buffer]*``
    One logical payload is pickled at ``pickle.HIGHEST_PROTOCOL`` with
    **out-of-band buffers**, so every contiguous ndarray's memory is
    handed over as its own frame part instead of being copied into the
    pickle byte-string first.  The head stays small (shape/dtype
    metadata and scalars) and array bytes are written exactly once.

The functions here are transport-agnostic: they drive any *channel*
exposing the two-method ``send_bytes(data)`` / ``recv_bytes() -> bytes``
interface of a :class:`multiprocessing.connection.Connection`.  Pipes
implement it natively; :class:`repro.cluster.wire.SocketChannel` adds the
same interface over a length-prefixed TCP stream, which is what lets the
single-host pool and the multi-node cluster share one encoder, one
decoder, and one set of byte-accounting semantics.

Receivers get zero-copy views: arrays reconstructed from out-of-band
buffers alias the received ``bytes`` objects and are therefore
**read-only** — that is the point (no materialisation copy).  Consumers
must copy before mutating in place, which every in-repo consumer already
does (``load_state_dict`` copies; ``state_math`` builds fresh arrays).

:class:`TransportStats` is the uniform byte/wire-form accounting record
both transports report, per batch and cumulatively.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Version of the payload framing + broadcast protocol spoken over the
#: wire.  Bumped whenever the frame layout or the message grammar of the
#: cluster protocol changes incompatibly; the cluster handshake refuses
#: peers whose version differs (a silent mismatch would surface as
#: pickle garbage mid-run instead).  v2: XOR delta payloads
#: (``BroadcastDelta.payload``, ``DeltaCodec``'s ``("xor", payload)``)
#: are byte-plane framed — a v1 peer would fail inside ``decode_broadcast``.
#: v3: a lossy ``EncodedUpdate.payload`` carries the codec's plain
#: ``{key: entry}`` dict where v2 carried an instance of a payload class
#: that no longer exists — a v2 peer's return would not unpickle.  The
#: lossy codecs are gone since; raw and delta payloads are unchanged, so
#: the version stays.  v4: a task item carries a tuple of ``(field, wire)``
#: sends against the worker's store where v3 carried one broadcast or
#: ``None``, and a reply echoes ``(items, digest)`` where v3 echoed a version.
WIRE_PROTOCOL_VERSION = 4


def send_payload(channel, obj: Any) -> int:
    """Send one framed payload; returns the bytes written to the channel.

    The frame is ``[buffer count][pickle head][buffer]*`` — protocol-5
    out-of-band pickling hands every contiguous ndarray's memory over as
    its own part, so the head stays small and array bytes are written
    exactly once instead of being copied into the pickle stream first.
    Objects whose buffers cannot travel out of band fall back to one
    in-band pickle, transparently.
    """
    try:
        buffers: List[pickle.PickleBuffer] = []
        head = pickle.dumps(
            obj, protocol=pickle.HIGHEST_PROTOCOL, buffer_callback=buffers.append
        )
        views = [buf.raw() for buf in buffers]
    except Exception:
        head = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        views = []
    header = struct.pack("<I", len(views))
    channel.send_bytes(header)
    channel.send_bytes(head)
    total = len(header) + len(head)
    for view in views:
        channel.send_bytes(view)
        total += view.nbytes
    return total


def recv_payload(channel) -> Tuple[Any, int]:
    """Receive one framed payload; returns ``(object, bytes read)``.

    Arrays reconstructed from out-of-band buffers are zero-copy views
    over the received ``bytes`` and therefore **read-only** — see the
    module docstring.
    """
    header = channel.recv_bytes()
    (count,) = struct.unpack("<I", header)
    head = channel.recv_bytes()
    buffers = [channel.recv_bytes() for _ in range(count)]
    obj = pickle.loads(head, buffers=buffers)
    total = len(header) + len(head) + sum(len(part) for part in buffers)
    return obj, total


@dataclass
class TransportStats:
    """Bytes and broadcast wire forms for one batch (or a whole transport)."""

    bytes_down: int = 0  # parent/coordinator → workers, actual framed bytes
    bytes_up: int = 0  # workers → parent/coordinator, actual framed bytes
    # State-dict sends by wire form; a dataset crosses through the same
    # store but counts in bytes_down only.
    broadcast_full: int = 0  # full states (the receiver held no base)
    broadcast_delta: int = 0  # lossless XOR deltas against a held state
    broadcast_ref: int = 0  # version refs (receiver already held it)
    inline_tasks: int = 0  # unpicklable tasks run inline (no wire)

    @property
    def bytes_total(self) -> int:
        return self.bytes_down + self.bytes_up

    def add(self, other: "TransportStats") -> None:
        self.bytes_down += other.bytes_down
        self.bytes_up += other.bytes_up
        self.broadcast_full += other.broadcast_full
        self.broadcast_delta += other.broadcast_delta
        self.broadcast_ref += other.broadcast_ref
        self.inline_tasks += other.inline_tasks

    def as_dict(self) -> Dict[str, int]:
        return {
            "bytes_down": self.bytes_down,
            "bytes_up": self.bytes_up,
            "bytes_total": self.bytes_total,
            "broadcast_full": self.broadcast_full,
            "broadcast_delta": self.broadcast_delta,
            "broadcast_ref": self.broadcast_ref,
            "inline_tasks": self.inline_tasks,
        }
