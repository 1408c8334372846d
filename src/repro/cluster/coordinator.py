"""The cluster coordinator: accepts node agents, leases them tasks.

One :class:`Coordinator` plays the role the parent process plays for the
worker pool — both are transports over the same
:class:`~repro.runtime.dispatch.Dispatcher`, which owns the batch
bookkeeping, the per-receiver broadcast caches and the byte accounting
— but over TCP, against agents that *pull* work instead of having it
pushed at an idle pipe.

Event model
-----------
The coordinator has no thread of its own.  Like
:class:`~repro.runtime.pool.WorkerPool`, it is pumped from the caller's
``submit``/``drain``/``poll`` calls: each :meth:`pump` waits on the
listener socket plus every peer channel at once
(``multiprocessing.connection.wait`` polls anything with a ``fileno``),
accepts and handshakes new agents, and services one message per ready
peer.  That keeps the backend single-threaded and deterministic to
reason about — there is exactly one reader of every socket.

Pull protocol (all messages are framed tuples, see
:mod:`repro.cluster.wire`):

``("pull",)``
    The agent is idle.  If the queue has work, the coordinator answers
    with up to ``capacity`` task grants (the capacity the agent
    advertised at handshake, tracked as per-peer outstanding leases);
    otherwise the pull is **parked** — no reply — until a batch
    arrives, at which point idle capacity is fed first.  The agent
    meanwhile heartbeats on a timer, so a parked connection is
    distinguishable from a dead one — and because heartbeats also
    trigger grants, a pull whose frames the network ate is healed by
    the next heartbeat instead of deadlocking the pair.
``("task", lease_id, task_bytes, broadcast)``
    One granted task.  The model state is lifted out of the pickle and
    shipped ref/delta/full against this peer's broadcast cache by the
    shared dispatch core (:mod:`repro.runtime.dispatch`) — the same code
    the pool runs per worker slot.
``("result", lease_id, error, payload, cache_version)``
    Completion for a lease.  Stale lease ids (the peer finished after
    its lease expired and the task was resubmitted) are dropped by the
    scheduler, so exactly one completion lands per task slot.
``("heartbeat",)`` / ``("shutdown",)``
    Liveness while parked; coordinated teardown.
``("corrupt", reason)``
    The agent received a frame it could not trust (checksum mismatch,
    undecodable stream).  Its connection state is unknowable, so the
    coordinator drops it **charge-free** — the agent reconnects with a
    cold cache and the tasks it held requeue without spending their
    retry budgets, because a transport fault is never the task's fault.

Liveness: when ``heartbeat_timeout`` is set, a peer silent past the
deadline is marked **suspect** — its leases are released immediately
(charged, like a worker death) instead of waiting out the full lease
timeout, and it receives no further grants.  The connection stays open:
a suspect that speaks again is recovered (counted, granted work again),
and its late results for released leases are dropped by the lease
table.  Every suspect/recovery/reconnect/drop is tallied into the
:meth:`Coordinator.fault_report` ledger that runs stamp into
``runtime["cluster"]`` provenance.

Byte accounting: task dispatches and results are charged to their
batch's :class:`~repro.runtime.wire.TransportStats` with the same
semantics as the pool (so per-round byte counts stay comparable);
control traffic — handshakes, pulls, heartbeats — appears only in the
per-peer and cumulative totals, never in ticket stats.
"""

from __future__ import annotations

import time
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..runtime.backends import BackendError
from ..runtime.dispatch import BroadcastCache, Dispatcher
from ..runtime.wire import TransportStats
from .chaos import FaultReport
from .wire import (
    DEFAULT_FRAME_TIMEOUT,
    DEFAULT_MAX_FRAME_BYTES,
    FrameCorruption,
    PayloadTooLarge,
    SocketChannel,
    WireError,
    listen,
    send_message,
    recv_message,
    server_handshake,
)


class _Peer:
    """One connected node agent: channel, broadcast-cache mirror, stats."""

    __slots__ = (
        "agent_id",
        "channel",
        "capacity",
        "pid",
        "mirror",
        "suspect",
        "last_seen",
        "stats",
    )

    def __init__(self, agent_id: str, channel: SocketChannel, info: Dict[str, Any]) -> None:
        self.agent_id = agent_id
        self.channel = channel
        # The hello is outside input: a capacity that is not an int must
        # not raise out of the accept path.
        capacity = info.get("capacity")
        self.capacity = max(1, capacity) if isinstance(capacity, int) else 1
        self.pid = info.get("pid")
        self.mirror = BroadcastCache()
        self.suspect = False
        self.last_seen = time.monotonic()
        self.stats = TransportStats()

    def send_task(self, item: Tuple) -> int:
        return send_message(self.channel, ("task",) + item)


class Coordinator(Dispatcher):
    """Task server for a set of node agents, with pool-identical batches.

    Parameters
    ----------
    host / port:
        Bind address for the listener; ``port=0`` picks an ephemeral
        port, read back via :attr:`address`.  The default binds loopback
        only — multi-host deployments opt into a routable bind address
        explicitly.
    lease_timeout:
        Seconds before a granted-but-unfinished task is presumed lost
        and resubmitted (see :class:`~repro.runtime.scheduler.PullScheduler`).
    max_task_retries:
        Per-task budget of peer losses before the batch fails, identical
        to the pool's worker-death budget.
    heartbeat_timeout:
        Seconds of peer silence before it is marked suspect and its
        leases released immediately.  ``None`` (the default) disables
        suspicion and falls back to lease expiry alone;
        :class:`~repro.cluster.backend.ClusterBackend` enables it at
        3x the agents' heartbeat interval.
    frame_timeout:
        Mid-frame stall budget handed to every accepted peer channel.
    auth_token:
        Shared secret for the handshake's HMAC challenge; ``None``
        admits any protocol-compatible peer (loopback default).
    on_peer_lost:
        Optional callback ``(agent_id) -> None`` fired after a peer's
        connection drops and its leases are requeued — the hook
        :class:`~repro.cluster.backend.ClusterBackend` uses to respawn
        locally-owned agent subprocesses, mirroring pool respawn.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 120.0,
        max_task_retries: int = 1,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
        heartbeat_timeout: Optional[float] = None,
        frame_timeout: float = DEFAULT_FRAME_TIMEOUT,
        auth_token: Optional[str] = None,
        on_peer_lost: Optional[Callable[[str], None]] = None,
    ) -> None:
        if heartbeat_timeout is not None and heartbeat_timeout <= 0:
            raise ValueError(
                f"heartbeat_timeout must be > 0 or None, got {heartbeat_timeout}"
            )
        super().__init__(lease_timeout=lease_timeout, max_task_retries=max_task_retries)
        self.max_frame_bytes = max_frame_bytes
        self.heartbeat_timeout = heartbeat_timeout
        self.frame_timeout = frame_timeout
        self.auth_token = auth_token
        self.on_peer_lost = on_peer_lost
        self._listener = listen(host, port)
        self._peers: Dict[str, _Peer] = {}
        self._anon_peers = 0
        self._closed = False
        # Fault-tolerance ledger (the coordinator's half of fault_report;
        # the scheduler keeps the retry-budget half).
        self._known_agents: set = set()
        self.suspects = 0
        self.suspect_recoveries = 0
        self.reconnects = 0
        self.peer_drops = 0
        self.corrupt_frames = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` agents should dial."""
        return self._listener.getsockname()[:2]

    @property
    def num_peers(self) -> int:
        return len(self._peers)

    def peer_ids(self) -> List[str]:
        return sorted(self._peers)

    def wait_for_peers(self, count: int, timeout: float = 30.0) -> None:
        """Pump until ``count`` agents are connected (startup barrier)."""
        deadline = time.monotonic() + timeout
        while len(self._peers) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BackendError(
                    f"cluster: only {len(self._peers)}/{count} node agent(s) "
                    f"connected within {timeout:.0f}s"
                )
            self.pump(min(remaining, 0.2))

    def close(self) -> None:
        """Tear the cluster down: fail outstanding batches, tell every
        agent to exit, close all sockets.  Suppresses ``on_peer_lost`` —
        peers leaving at shutdown are not failures to repair."""
        if self._closed:
            return
        self._closed = True
        self.on_peer_lost = None
        self.scheduler.fail_all_outstanding(
            "cluster coordinator closed with task(s) outstanding"
        )
        for peer in list(self._peers.values()):
            try:
                send_message(peer.channel, ("shutdown",))
            except (WireError, OSError):
                pass
            peer.channel.close()
        self._peers.clear()
        try:
            self._listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # submit / drain — poll and the stats surface are inherited
    # ------------------------------------------------------------------
    def submit(self, tasks: Sequence[Any]) -> int:
        if self._closed:
            raise BackendError("cluster coordinator is closed")
        return super().submit(tasks)

    def drain(self, ticket: int) -> List[Any]:
        batch = self.scheduler.batch(ticket)  # raises on unknown ticket
        starved_since: Optional[float] = None
        while batch.remaining:
            self.pump(timeout=0.2)
            # A batch with work left but no peers to run it cannot finish;
            # give respawns/reconnects one lease window, then fail loudly
            # instead of spinning forever.  Suspect peers do not count —
            # they receive no grants, so they cannot finish the batch.
            if any(not peer.suspect for peer in self._peers.values()):
                starved_since = None
            elif starved_since is None:
                starved_since = time.monotonic()
            elif time.monotonic() - starved_since > self.scheduler.lease_timeout:
                raise BackendError(
                    f"cluster: no node agents connected for "
                    f"{self.scheduler.lease_timeout:.0f}s with batch {ticket} "
                    f"incomplete ({batch.remaining} task(s) left)"
                )
        return self._claim(ticket)

    # ------------------------------------------------------------------
    # Per-peer and fault accounting
    # ------------------------------------------------------------------
    def peer_stats(self) -> Dict[str, TransportStats]:
        """Per-connected-peer byte counters (control traffic included)."""
        return {agent_id: peer.stats for agent_id, peer in self._peers.items()}

    def fault_report(self) -> Dict[str, int]:
        """The run's fault-tolerance ledger: what the liveness, retry,
        and integrity machinery actually did.  Merged from the
        coordinator's connection-level counters and the scheduler's
        retry-budget counters; stamped into ``runtime["cluster"]``."""
        return FaultReport(
            suspects=self.suspects,
            suspect_recoveries=self.suspect_recoveries,
            reconnects=self.reconnects,
            peer_drops=self.peer_drops,
            corrupt_frames=self.corrupt_frames,
            **self.scheduler.fault_counters(),
        ).as_dict()

    # ------------------------------------------------------------------
    # The event pump
    # ------------------------------------------------------------------
    def pump(self, timeout: float) -> None:
        """One scheduling step: accept joiners, service ready peers,
        suspect the silent, expire overdue leases, feed idle capacity."""
        if self._closed:
            return
        self._feed_idle()
        waitables: List[Any] = [self._listener]
        by_channel: Dict[Any, _Peer] = {}
        for peer in self._peers.values():
            waitables.append(peer.channel)
            by_channel[peer.channel] = peer
        # connection.wait polls anything with a fileno(), which both the
        # listener socket and SocketChannel provide.
        ready = connection.wait(waitables, timeout)
        for obj in ready:
            if obj is self._listener:
                self._accept()
            else:
                peer = by_channel[obj]
                if peer.agent_id in self._peers:  # not dropped this pump
                    self._service(peer)
        self._check_liveness()
        if self.scheduler.expire_leases():
            self._feed_idle()

    def _check_liveness(self) -> None:
        """Heartbeat-deadline liveness: a peer silent past the deadline
        is suspect — release its leases *now* (charged, like a worker
        death) rather than waiting out the full lease timeout.  The
        connection stays open so a recovered peer can resume."""
        if self.heartbeat_timeout is None:
            return
        now = time.monotonic()
        fed = False
        for peer in self._peers.values():
            if not peer.suspect and now - peer.last_seen > self.heartbeat_timeout:
                peer.suspect = True
                self.suspects += 1
                if self.scheduler.release_peer(peer.agent_id):
                    fed = True
        if fed:
            self._feed_idle()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:
            return
        channel = SocketChannel(
            sock,
            max_frame_bytes=self.max_frame_bytes,
            frame_timeout=self.frame_timeout,
        )
        try:
            info = server_handshake(channel, auth_token=self.auth_token)
        except (EOFError, WireError, OSError):
            # Bad hello (mismatch, auth failure, garbled or torn frames)
            # or a welcome that could not be sent: not a peer.  The dial
            # side retries; an event-loop crash would take the whole
            # cluster down over one broken joiner.
            channel.close()
            return
        agent_id = str(info.get("agent_id") or "")
        if not agent_id:
            self._anon_peers += 1
            agent_id = f"agent-{self._anon_peers}"
        if agent_id in self._known_agents:
            self.reconnects += 1
        self._known_agents.add(agent_id)
        stale = self._peers.pop(agent_id, None)
        if stale is not None:
            # Reconnect under the same identity: the old connection is
            # dead weight — requeue its leases and replace it.  The new
            # peer starts with a cold cache, so its first broadcast takes
            # the full-state path (reconnect == pool respawn).
            stale.channel.close()
            if self.scheduler.release_peer(agent_id):
                self._feed_idle()
        peer = _Peer(agent_id, channel, info)
        # Handshake traffic, charged to the peer and the totals only.
        peer.stats.bytes_up += channel.bytes_received
        peer.stats.bytes_down += channel.bytes_sent
        self._totals.bytes_up += channel.bytes_received
        self._totals.bytes_down += channel.bytes_sent
        self._peers[agent_id] = peer

    def _service(self, peer: _Peer) -> None:
        try:
            message, nbytes = recv_message(peer.channel)
        except (FrameCorruption, PayloadTooLarge):
            # The stream is damaged, not the peer: after a bad frame the
            # byte stream cannot be resynchronised, so drop the
            # connection — but charge-free, because a transport fault is
            # never the leased task's fault.  The agent reconnects with
            # a cold cache and the work resubmits.
            self.corrupt_frames += 1
            self._drop_peer(peer, charge=False)
            return
        except (EOFError, WireError, OSError):
            self._drop_peer(peer)
            return
        peer.last_seen = time.monotonic()
        if peer.suspect:
            # Spoke again before reconnecting: recovered.  Its released
            # leases stay released (late results drop harmlessly); it is
            # simply eligible for grants again.
            peer.suspect = False
            self.suspect_recoveries += 1
        peer.stats.bytes_up += nbytes
        self._totals.bytes_up += nbytes
        kind = message[0] if isinstance(message, tuple) and message else None
        if kind == "pull":
            self._grant(peer)
        elif kind == "result" and len(message) == 5 and isinstance(message[1], int):
            self._complete(peer.mirror, message[1:], nbytes)
            self._grant(peer)  # top idle capacity back up immediately
        elif kind == "heartbeat":
            # Heartbeats double as grant opportunities: if the network
            # ate a pull (or this peer just recovered from suspicion),
            # the next heartbeat re-offers its idle capacity instead of
            # leaving the pair deadlocked.
            self._grant(peer)
        elif kind == "corrupt":
            # The agent could not trust a frame *we* sent; its stream
            # position is unknowable, so retire this connection (charge-
            # free) and let the agent reconnect fresh.
            self.corrupt_frames += 1
            self._drop_peer(peer, charge=False)
        else:
            # Unknown or malformed message: protocol violation — drop the
            # peer rather than guess at the stream state.
            self._drop_peer(peer)

    def _grant(self, peer: _Peer) -> None:
        """Feed a peer's idle capacity: lease tasks until its advertised
        capacity is full or the queue runs dry (then the pull parks)."""
        while (
            not peer.suspect
            and peer.agent_id in self._peers
            and self.scheduler.outstanding_for(peer.agent_id) < peer.capacity
        ):
            lease = self.scheduler.next_task(peer.agent_id)
            if lease is None:
                return  # queue empty: parked until the next submit
            try:
                # 0 bytes → completed inline (unpicklable); keep feeding
                # this still-idle peer.
                peer.stats.bytes_down += self._dispatch(lease, peer.mirror, peer.send_task)
            except (WireError, OSError):
                # The peer died between its pull and our send.  The task
                # never started, so this loss is not charged to its retry
                # budget.  Its pull dies with it.
                self.scheduler.rescind(lease.lease_id)
                self._drop_peer(peer)
                return

    def _drop_peer(self, peer: _Peer, charge: bool = True) -> None:
        """Connection-level failure: requeue the peer's leases (charged
        against their retry budgets unless the loss was provably the
        transport's fault), notify the owner, feed survivors."""
        peer.channel.close()
        self._peers.pop(peer.agent_id, None)
        self.peer_drops += 1
        self.scheduler.release_peer(peer.agent_id, charge=charge)
        if self.on_peer_lost is not None:
            self.on_peer_lost(peer.agent_id)
        self._feed_idle()

    def _feed_idle(self) -> None:
        """Offer pending work to every live peer with spare capacity —
        how parked pulls wake on submit and how a shrunken cluster keeps
        draining on the survivors (graceful degradation)."""
        if not self.scheduler.has_pending:
            return
        for peer in list(self._peers.values()):
            if not self.scheduler.has_pending:
                return
            if peer.agent_id in self._peers:
                self._grant(peer)

    def __repr__(self) -> str:
        host, port = self.address if not self._closed else ("-", 0)
        return (
            f"Coordinator({host}:{port}, peers={len(self._peers)}, "
            f"outstanding={len(self.scheduler.outstanding_tickets)})"
        )
