"""``repro.cluster`` — multi-node execution over framed TCP sockets.

The runtime made every fan-out site speak in pure, picklable tasks,
every transport speak one wire format (:mod:`repro.runtime.wire`) and
every multi-process backend run one dispatch core
(:mod:`repro.runtime.dispatch` over the pull scheduler in
:mod:`repro.runtime.scheduler`: idle agents *pull* tasks; leases expire
and resubmit when a node dies, under the same per-task retry budget as
the pool); this package crosses the machine boundary with them.
Architecture (DIRAC-style pilot jobs):

:mod:`~repro.cluster.wire`
    :class:`SocketChannel` — CRC32-checked, length-prefixed frames over
    TCP presenting the pipe's ``send_bytes``/``recv_bytes`` interface,
    plus the magic/version handshake (optionally HMAC-authenticated)
    and the transport failure taxonomy.
:mod:`~repro.cluster.chaos`
    :class:`FaultPlan` / :class:`NetworkFaultInjector` — seeded,
    schedule-driven network fault injection (drops, delays, duplicates,
    corruption, tears, partitions) as a pure function of
    (seed, peer, frame index), and the :class:`FaultReport` ledger the
    coordinator stamps into provenance.
:mod:`~repro.cluster.coordinator`
    :class:`Coordinator` — the dispatch core's TCP transport: accepts
    agents, parks empty pulls, grants leases up to each agent's
    capacity, and watches liveness.
:mod:`~repro.cluster.agent`
    :func:`run_agent` — the node worker loop (the pool worker's task
    step over a socket); also ``python -m repro.cluster.agent HOST:PORT`` for real
    multi-host runs.
:mod:`~repro.cluster.backend`
    :class:`ClusterBackend` — the drop-in ``Backend`` + streaming
    surface.  ``get_backend("cluster:4")`` stands up a deterministic
    localhost cluster whose results are bit-identical to ``pool`` and
    ``serial``.
"""

from .backend import ClusterBackend
from .chaos import FaultPlan, FaultReport, NetworkFaultInjector
from .coordinator import Coordinator
from .wire import (
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
    server_handshake,
)
def __getattr__(name):
    # Lazy so importing the package does not preload ``repro.cluster.agent``
    # (``python -m repro.cluster.agent`` would then warn via runpy).
    if name == "run_agent":
        from .agent import run_agent

        return run_agent
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AuthenticationError",
    "ChannelTimeout",
    "ClusterBackend",
    "Coordinator",
    "FaultPlan",
    "FaultReport",
    "FrameCorruption",
    "NetworkFaultInjector",
    "PayloadTooLarge",
    "ProtocolMismatch",
    "SocketChannel",
    "WireError",
    "client_handshake",
    "connect",
    "listen",
    "run_agent",
    "server_handshake",
]
