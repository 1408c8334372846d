"""The node agent: a pilot job that dials in and pulls work.

``run_agent`` is the whole worker: connect out to the coordinator,
handshake (magic + wire/frame version + identity/capacity, answering the
HMAC challenge when the coordinator requires a shared secret), send one
``("pull",)``, and then serve the task/result loop over a
:class:`~repro.cluster.wire.SocketChannel`:

* each ``("task", lease_id, task_bytes, sends)`` is run by
  :func:`repro.runtime.dispatch.serve_task` — the same worker step the
  pool's pipe workers run (sends installed first, task failures
  reported rather than fatal, the store echoed in every result);
* a daemon **heartbeat thread** proves liveness on a timer — during
  long tasks too, not just while parked — so the coordinator's
  heartbeat-deadline liveness never mistakes a busy agent for a dead
  one.  Heartbeats and results share the channel's message-level send
  lock, so their frames never interleave.

Fault tolerance: a torn connection, a corrupt frame (the agent sends a
best-effort ``("corrupt", reason)`` notice first, so the coordinator can
requeue its leases charge-free), or a timed partition all land in the
same place — the **reconnect loop**, which re-dials with capped
exponential backoff and seeded jitter (a deterministic function of
``(agent_id, attempt)``, so chaos runs reproduce their reconnect timing
pattern).  An explicit handshake reject (version skew, failed auth) is
fatal — retrying cannot fix it — while transport failures during the
handshake retry like any other connection loss.

The localhost cluster spawns this as subprocesses
(:class:`~repro.cluster.backend.ClusterBackend`); real multi-host use
runs the same loop via ``python -m repro.cluster.agent HOST:PORT`` on
each node, pointed at a coordinator bound to a routable address.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import Any, Optional, Tuple

from ..runtime.dispatch import WorkerStore, serve_task
from .chaos import CHAOS_ENV_VAR, NetworkFaultInjector, coerce_plan
from .wire import (
    AUTH_TOKEN_ENV_VAR,
    AuthenticationError,
    ChannelTimeout,
    FrameCorruption,
    ProtocolMismatch,
    WireError,
    client_handshake,
    connect,
    recv_message,
    send_message,
)


def run_agent(
    address: Tuple[str, int],
    agent_id: Optional[str] = None,
    capacity: int = 1,
    heartbeat_interval: float = 5.0,
    connect_timeout: float = 20.0,
    auth_token: Optional[str] = None,
    reconnect: bool = True,
    max_connect_failures: int = 8,
    backoff_base: float = 0.5,
    backoff_cap: float = 30.0,
    chaos: Any = None,
) -> None:
    """Serve tasks from the coordinator at ``address`` until shut down.

    Returns normally on a clean ``("shutdown",)``.  With
    ``reconnect=True`` (the default) a lost connection — EOF, corrupt
    frame, injected partition — is healed by re-dialling with capped
    exponential backoff plus seeded jitter; ``max_connect_failures``
    *consecutive* failed dials give up (the coordinator is gone, not
    flaky).  ``reconnect=False`` restores the old one-shot behaviour
    where supervision owns retry.  Raises
    :class:`~repro.cluster.wire.AuthenticationError` /
    :class:`~repro.cluster.wire.ProtocolMismatch` on an explicit
    handshake reject — fatal, since retrying cannot fix a version or
    secret mismatch.

    ``chaos`` (a :class:`~repro.cluster.chaos.FaultPlan` or spec string)
    arms a :class:`~repro.cluster.chaos.NetworkFaultInjector` on this
    agent's send path; its frame counter spans reconnects, so one
    schedule unfolds deterministically across the failures it causes.
    """
    agent_id = agent_id or f"pid-{os.getpid()}"
    plan = coerce_plan(chaos)
    injector = (
        NetworkFaultInjector(plan, agent_id) if plan is not None and plan.active else None
    )
    identity = {"agent_id": agent_id, "capacity": capacity, "pid": os.getpid()}
    failures = 0
    attempt = 0
    while True:
        if injector is not None:
            # An active partition means the coordinator is unreachable,
            # not merely flaky: wait it out before dialling.
            remaining = injector.partition_remaining()
            if remaining > 0:
                time.sleep(remaining)
        try:
            channel = connect(address, timeout=connect_timeout, chaos=injector)
        except OSError:
            channel = None
        if channel is not None:
            try:
                client_handshake(channel, identity, auth_token=auth_token)
            except AuthenticationError:
                channel.close()
                raise
            except ProtocolMismatch as exc:
                channel.close()
                if "rejected" in str(exc):
                    raise  # explicit reject: version skew, not transport luck
                channel = None  # garbled handshake: retry like a lost dial
            if channel is not None:
                failures = 0
                attempt = 0  # a fresh outage restarts the backoff curve
                try:
                    outcome = _serve(channel, heartbeat_interval)
                finally:
                    channel.close()
                if outcome == "shutdown" or not reconnect:
                    return
                attempt += 1
                time.sleep(_backoff(agent_id, attempt, backoff_base, backoff_cap))
                continue
        failures += 1
        if not reconnect or failures >= max_connect_failures:
            raise ConnectionError(
                f"agent {agent_id}: coordinator at {address[0]}:{address[1]} "
                f"unreachable after {failures} consecutive attempt(s)"
            )
        attempt += 1
        time.sleep(_backoff(agent_id, attempt, backoff_base, backoff_cap))


def _backoff(agent_id: str, attempt: int, base: float, cap: float) -> float:
    """Capped exponential backoff with *seeded* jitter: the jitter factor
    (0.5x–1.5x) is a pure function of (agent_id, attempt), so a fleet
    never thunders in lockstep yet every chaos run reproduces the same
    reconnect timing."""
    delay = min(cap, base * (2.0 ** min(attempt - 1, 16)))
    digest = hashlib.blake2b(
        f"{agent_id}|backoff|{attempt}".encode("utf-8"), digest_size=8
    ).digest()
    jitter = 0.5 + int.from_bytes(digest, "big") / float(1 << 64)
    return delay * jitter


def _serve(channel, heartbeat_interval: float) -> str:
    """The task/result loop for one connection.  Returns ``"shutdown"``
    on a clean stop and ``"lost"`` when the connection must be retired
    (EOF, stall, corrupt frame)."""
    store = WorkerStore()
    stop = threading.Event()
    dead = threading.Event()

    def _heartbeat() -> None:
        # Liveness on a timer, busy or not: the coordinator's
        # heartbeat deadline must never fire just because a local round
        # is slow.  The message-level send lock keeps these frames from
        # interleaving with a result being sent by the main loop.
        while not stop.wait(heartbeat_interval):
            try:
                send_message(channel, ("heartbeat",))
            except (WireError, OSError):
                dead.set()
                return

    def _reply(result) -> None:
        send_message(channel, ("result",) + result)

    pulse = threading.Thread(target=_heartbeat, daemon=True)
    pulse.start()
    try:
        send_message(channel, ("pull",))
        while True:
            try:
                message, _ = recv_message(channel, timeout=heartbeat_interval)
            except ChannelTimeout:
                if dead.is_set():
                    return "lost"  # heartbeat thread saw the send side die
                continue
            except FrameCorruption as exc:
                # Tell the coordinator why we are leaving so it can
                # requeue our leases charge-free; best effort — if the
                # notice cannot be sent the lease timeout still recovers.
                try:
                    send_message(channel, ("corrupt", str(exc)))
                except (WireError, OSError):
                    pass
                return "lost"
            except (EOFError, WireError, OSError):
                return "lost"
            kind = message[0] if isinstance(message, tuple) and message else None
            if kind == "shutdown":
                return "shutdown"
            if kind != "task":
                continue  # tolerate unknown control messages
            try:
                serve_task(store, message[1:], _reply)
                send_message(channel, ("pull",))
            except (WireError, OSError):
                return "lost"
    finally:
        stop.set()


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.cluster.agent HOST:PORT [--id NAME]`` — join a
    coordinator from another host (the multi-node entry point)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.agent",
        description="Run one repro cluster node agent against a coordinator.",
    )
    parser.add_argument("address", help="coordinator address as HOST:PORT")
    parser.add_argument("--id", dest="agent_id", default=None, help="agent identity")
    parser.add_argument(
        "--capacity", type=int, default=1, help="advertised task capacity"
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=5.0,
        help="seconds between liveness heartbeats",
    )
    parser.add_argument(
        "--auth-token",
        default=None,
        help=(
            "shared secret for the coordinator's HMAC challenge "
            f"(default: ${AUTH_TOKEN_ENV_VAR})"
        ),
    )
    parser.add_argument(
        "--no-reconnect",
        action="store_true",
        help="exit on connection loss instead of re-dialling with backoff",
    )
    parser.add_argument(
        "--backoff-base",
        type=float,
        default=0.5,
        help="first reconnect delay in seconds (doubles per attempt)",
    )
    parser.add_argument(
        "--backoff-cap",
        type=float,
        default=30.0,
        help="maximum reconnect delay in seconds",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        help=(
            "seeded fault schedule, e.g. 'seed=7,drop=0.05,partition=40@0.5' "
            f"(default: ${CHAOS_ENV_VAR}; test harness only)"
        ),
    )
    args = parser.parse_args(argv)
    host, _, port = args.address.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"address must be HOST:PORT, got {args.address!r}")
    try:
        run_agent(
            (host, int(port)),
            agent_id=args.agent_id,
            capacity=args.capacity,
            heartbeat_interval=args.heartbeat,
            auth_token=args.auth_token or os.environ.get(AUTH_TOKEN_ENV_VAR),
            reconnect=not args.no_reconnect,
            backoff_base=args.backoff_base,
            backoff_cap=args.backoff_cap,
            chaos=args.chaos or os.environ.get(CHAOS_ENV_VAR),
        )
    except (ProtocolMismatch, ConnectionError) as exc:
        print(f"agent rejected: {exc}")
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
