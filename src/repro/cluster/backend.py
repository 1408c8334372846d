"""``ClusterBackend``: the pool's API, served by a socket cluster.

A drop-in :class:`~repro.runtime.backends.Backend` (plus the
``submit``/``drain``/``poll``/``pop_ticket_stats`` streaming surface the
deletion service detects — the same
:class:`~repro.runtime.dispatch.DispatchBackend` base the pool backend
has), so every ``backend=`` call site — federation rounds, SISA chains,
unlearning windows, all codecs — routes over TCP
unchanged.  Because tasks carry their model state and exact RNG
position, results are **bit-identical** to ``pool`` and ``serial``; the
cluster changes wall-clock and wire bytes, never the numbers.

The default deployment is the deterministic localhost cluster: on first
use the backend binds a loopback coordinator on an ephemeral port and
spawns ``max_workers`` node-agent subprocesses that dial back in — the
shape CI pins parity against.  A node agent that dies mid-task is
detected at the socket, its leased tasks are resubmitted under the
pool's exact retry budget, and a replacement agent is respawned (empty
store, so its first model ships full — same as a respawned pool
worker).

Real multi-host use is the same coordinator bound to a routable
address, with agents started on other machines via
``python -m repro.cluster.agent HOST:PORT`` instead of being spawned
here — see :mod:`repro.cluster.agent`.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Dict, List, Optional, Sequence

from ..runtime.dispatch import DispatchBackend, worker_context
from ..runtime.wire import TransportStats
from .chaos import FaultPlan, FaultReport, coerce_plan
from .coordinator import Coordinator
from .wire import AUTH_TOKEN_ENV_VAR, DEFAULT_FRAME_TIMEOUT


def _agent_process(context, address, agent_id: str, kwargs: Dict[str, Any]):
    """One local node-agent subprocess, dialing the loopback coordinator."""
    # Imported here, not at module top: ``python -m repro.cluster.agent``
    # imports this package first, and preloading the agent module would
    # trip runpy's found-in-sys.modules warning on the documented
    # multi-host entry point.
    from .agent import run_agent

    process = context.Process(
        target=run_agent,
        args=(address,),
        kwargs={"agent_id": agent_id, **kwargs},
        name=agent_id,
        daemon=True,
    )
    process.start()
    return process


def _teardown(coordinator: Coordinator, agents: List[Any]) -> None:
    """Module-level teardown target for ``weakref.finalize`` (must not
    hold a reference back to the backend)."""
    coordinator.close()
    for process in agents:
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
    agents.clear()


class ClusterBackend(DispatchBackend):
    """A :class:`Backend` over a coordinator + node-agent cluster.

    Parameters
    ----------
    max_workers:
        Number of locally-spawned node agents; defaults to
        ``max(2, usable_cpus())`` like the other parallel backends.
        Ignored when ``spawn_agents=False``.
    max_task_retries:
        Per-task budget of node-agent losses before a batch fails —
        identical semantics to the pool's worker-death budget.
    lease_timeout:
        Seconds before a granted-but-silent task is presumed lost and
        resubmitted (the cluster's analogue of noticing a dead pipe).
    host / port:
        Coordinator bind address.  The loopback default is the
        deterministic localhost cluster; bind a routable address and set
        ``spawn_agents=False`` to serve agents on other machines.
    spawn_agents:
        When True (default) the backend owns its agents: it spawns them
        on startup and respawns any whose *process* dies.  When False it
        only listens, and :meth:`wait_for_agents` blocks until
        externally started agents have joined.
    capacity:
        Task capacity each spawned agent advertises — the coordinator
        grants up to this many concurrent leases per agent.
    heartbeat_interval / heartbeat_timeout:
        Agents prove liveness every ``heartbeat_interval`` seconds (from
        a dedicated thread, so long tasks heartbeat too); a peer silent
        past ``heartbeat_timeout`` (default 3x the interval) is marked
        suspect and its leases resubmit immediately.
    auth_token:
        Shared secret for the handshake's HMAC challenge.  Defaults to
        ``$REPRO_CLUSTER_TOKEN`` when set; spawned agents inherit it.
    chaos:
        A :class:`~repro.cluster.chaos.FaultPlan` (or spec string) armed
        on every spawned agent's send path — the deterministic fault
        schedule the chaos tests run under.  Test harness only.
    respawn:
        When False, dead agent processes are *not* replaced — the
        graceful-degradation mode: the cluster shrinks and surviving
        agents drain the work.
    agent_options:
        Extra keyword arguments merged into every spawned agent's
        :func:`~repro.cluster.agent.run_agent` call (e.g.
        ``backoff_base`` to speed reconnects up in tests).
    """

    name = "cluster"

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_task_retries: int = 1,
        lease_timeout: float = 120.0,
        host: str = "127.0.0.1",
        port: int = 0,
        spawn_agents: bool = True,
        capacity: int = 1,
        heartbeat_interval: float = 5.0,
        heartbeat_timeout: Optional[float] = None,
        frame_timeout: float = DEFAULT_FRAME_TIMEOUT,
        auth_token: Optional[str] = None,
        chaos: Any = None,
        respawn: bool = True,
        agent_options: Optional[Dict[str, Any]] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__(max_workers, max_task_retries)
        self.spawn_agents = spawn_agents
        self.respawn = respawn
        self.chaos: Optional[FaultPlan] = coerce_plan(chaos)
        if auth_token is None:
            auth_token = os.environ.get(AUTH_TOKEN_ENV_VAR)
        self._init = dict(
            lease_timeout=lease_timeout,
            max_task_retries=max_task_retries,
            host=host,
            port=port,
            heartbeat_timeout=(
                heartbeat_timeout
                if heartbeat_timeout is not None
                else 3.0 * heartbeat_interval
            ),
            frame_timeout=frame_timeout,
            auth_token=auth_token,
        )
        self._agent_kwargs = dict(
            capacity=capacity,
            heartbeat_interval=heartbeat_interval,
            auth_token=auth_token,
            chaos=self.chaos,
            reconnect=True,
        )
        self._agent_kwargs.update(agent_options or {})
        self.coordinator: Optional[Coordinator] = None
        self._agents: List[Any] = []
        self._agent_serial = 0
        self._finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self.coordinator is not None

    def _ensure_started(self) -> None:
        if self.coordinator is not None:
            return
        coordinator = Coordinator(
            host=self._init["host"],
            port=self._init["port"],
            lease_timeout=self._init["lease_timeout"],
            max_task_retries=self._init["max_task_retries"],
            heartbeat_timeout=self._init["heartbeat_timeout"],
            frame_timeout=self._init["frame_timeout"],
            auth_token=self._init["auth_token"],
            on_peer_lost=self._on_peer_lost,
        )
        self.coordinator = coordinator
        self._finalizer = weakref.finalize(self, _teardown, coordinator, self._agents)
        if self.spawn_agents:
            context = worker_context()
            count = self.worker_count()
            for _ in range(count):
                self._agents.append(
                    _agent_process(
                        context,
                        coordinator.address,
                        self._next_agent_id(),
                        self._agent_kwargs,
                    )
                )
            coordinator.wait_for_peers(count)

    def _next_agent_id(self) -> str:
        self._agent_serial += 1
        return f"node-{self._agent_serial}"

    def _on_peer_lost(self, agent_id: str) -> None:
        """Replace a locally-owned agent whose *process* died (pool
        respawn's twin).

        Agents heal torn connections themselves (reconnect + backoff),
        so a peer drop does not automatically mean a dead process —
        only the processes actually gone are replaced, topping the
        fleet back up to ``worker_count()``.  A replacement connects
        with a fresh identity and an empty store, so the next model it
        is handed ships full.  Externally-managed agents
        (``spawn_agents=False``) are the operator's to restart, and
        ``respawn=False`` turns replacement off entirely (graceful
        degradation: survivors drain the work).
        """
        if not self.spawn_agents or not self.respawn or self.coordinator is None:
            return
        # A dying process closes its socket *before* it becomes reapable,
        # so the EOF that got us here can land while ``is_alive()`` still
        # says True.  Wait briefly on the named process to close that
        # window; a genuinely-alive agent (torn connection, about to
        # reconnect) just costs the timeout.
        for process in self._agents:
            if process.name == agent_id:
                process.join(timeout=0.5)
                break
        self._agents[:] = [p for p in self._agents if p.is_alive()]
        count = self.worker_count()
        while len(self._agents) < count:
            self._agents.append(
                _agent_process(
                    worker_context(),
                    self.coordinator.address,
                    self._next_agent_id(),
                    self._agent_kwargs,
                )
            )

    def agent_pids(self) -> List[int]:
        """PIDs of the locally-spawned node agents currently alive."""
        return [p.pid for p in self._agents if p.is_alive()]

    def wait_for_agents(self, count: int, timeout: float = 30.0) -> None:
        """Block until ``count`` agents have joined (external-agent mode)."""
        self._ensure_started()
        self.coordinator.wait_for_peers(count, timeout=timeout)

    @property
    def address(self):
        """The coordinator's ``(host, port)`` — starts it if needed."""
        self._ensure_started()
        return self.coordinator.address

    def close(self) -> None:
        """Stop agents and coordinator.  Restarts lazily if used again."""
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self.coordinator is not None:
            _teardown(self.coordinator, self._agents)
        self.coordinator = None

    # ------------------------------------------------------------------
    # The Backend + streaming interface (DispatchBackend's, over the
    # lazily started coordinator)
    # ------------------------------------------------------------------
    def _dispatcher(self, start: bool = True) -> Optional[Coordinator]:
        if start:
            self._ensure_started()
        return self.coordinator

    def run_tasks(self, tasks: Sequence[Any]) -> List[Any]:
        # Defined on this class, not inherited: the benchmark's tracer
        # wraps ``ClusterBackend.run_tasks`` through the class ``__dict__``.
        return self._run_batch(tasks)

    def peer_stats(self) -> Dict[str, TransportStats]:
        if self.coordinator is None:
            return {}
        return self.coordinator.peer_stats()

    def fault_report(self) -> Dict[str, int]:
        """The coordinator's fault-tolerance ledger (suspects,
        reconnects, retries...); all zeros before the cluster starts."""
        if self.coordinator is None:
            return FaultReport.zero_dict()
        return self.coordinator.fault_report()
