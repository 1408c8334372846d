"""Task scheduling for every multi-process backend: a central queue,
leased out to workers.

:class:`PullScheduler` is the transport-free core under both the worker
pool (:mod:`repro.runtime.pool`, pipe slots) and the cluster coordinator
(:mod:`repro.cluster.coordinator`, TCP peers).  The cluster follows
DIRAC's pilot-job architecture — node agents *pull* a task when they
have capacity, so a slow or briefly-partitioned host simply pulls less
instead of having work piled onto it — and the pool plays the same game
with its slot indices as the peers, granting an idle slot one task at a
time.  The scheduler knows nothing about pipes or sockets; the
transports feed it peers and completions, so the semantics that must
not differ between backends exist once:

* batches are tickets with results in submission order;
* every granted task is a **lease** with a deadline.  A peer that
  dies or disconnects (:meth:`release_peer`) or goes silent past its
  lease (:meth:`expire_leases`) returns its tasks to the *front* of the
  queue, charged against the ``max_task_retries`` budget — so a task
  that keeps killing its workers fails the batch instead of looping
  forever, and a single dead worker costs one resubmission, not the
  run.  Losses that are provably the transport's fault, not the task's
  — a corrupt frame, a failed dispatch — requeue **charge-free**
  (``release_peer(peer, charge=False)`` / :meth:`rescind`), so a noisy
  network cannot exhaust a task's budget.  The pool passes
  ``lease_timeout=float("inf")``: a pipe reports loss by EOF, never by
  silence;
* completions are keyed by lease id, so a result from an expired lease
  (the slow peer finished after we gave up on it) is recognised and
  dropped instead of double-filling the batch slot — also what makes a
  chaos-duplicated result frame harmless;
* grants are **capacity-aware**: :meth:`outstanding_for` counts each
  peer's live leases and the coordinator grants up to the capacity the
  agent advertised at handshake, so a ``--capacity 4`` node pipelines
  four tasks while a default node (and every pool slot) keeps the
  one-at-a-time rhythm.

Determinism: tasks carry their full model state and RNG position, so
*which* peer runs a task, in what order, after how many lease
expiries, cannot change the result — only wall-clock and bytes moved.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .wire import TransportStats

# (ticket, index_in_batch, task) — one unit of schedulable work.  The
# task slot holds the live object; it is pickled at dispatch time.
WorkItem = Tuple[int, int, Any]


class BatchState:
    """Bookkeeping for one submitted batch of tasks."""

    __slots__ = ("results", "remaining", "errors", "stats")

    def __init__(self, size: int) -> None:
        self.results: List[Any] = [None] * size
        self.remaining = size
        self.errors: List[str] = []
        self.stats = TransportStats()


class Lease:
    """One task granted to one peer, with an expiry deadline."""

    __slots__ = ("lease_id", "peer", "item", "deadline")

    def __init__(self, lease_id: int, peer: Any, item: WorkItem, deadline: float) -> None:
        self.lease_id = lease_id
        self.peer = peer
        self.item = item
        self.deadline = deadline


class PullScheduler:
    """Central queue + lease table behind the pool and the coordinator.

    Parameters
    ----------
    lease_timeout:
        Seconds a granted task may run before the scheduler assumes its
        peer is dead and resubmits it.  Generous by default — federated
        local rounds are seconds, not minutes, and an expired-but-alive
        peer's late result is dropped harmlessly — but it bounds how
        long a silently-vanished node can stall a batch.
    max_task_retries:
        How many times a task lost to a dead/expired peer is resubmitted
        before its batch fails.
    """

    def __init__(self, lease_timeout: float = 120.0, max_task_retries: int = 1) -> None:
        if lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {lease_timeout}")
        if max_task_retries < 0:
            raise ValueError(f"max_task_retries must be >= 0, got {max_task_retries}")
        self.lease_timeout = lease_timeout
        self.max_task_retries = max_task_retries
        self._pending: deque = deque()
        self._batches: Dict[int, BatchState] = {}
        self._leases: Dict[int, Lease] = {}
        self._deaths: Dict[Tuple[int, int], int] = {}  # (ticket, index) -> losses
        self._outstanding: Dict[Any, int] = {}  # peer -> live lease count
        self._next_ticket = 0
        self._next_lease = 0
        # Fault-tolerance ledger, folded into the coordinator's
        # FaultReport: how often the retry budget was charged, how often
        # a loss was forgiven, and how work was lost.
        self.charged_losses = 0
        self.free_requeues = 0
        self.leases_expired = 0
        self.tasks_failed = 0
        self.stale_completions = 0

    # ------------------------------------------------------------------
    # Batch lifecycle (transport-facing)
    # ------------------------------------------------------------------
    def add_batch(self, tasks: Sequence[Any]) -> int:
        """Queue a batch of tasks; returns its ticket."""
        tasks = list(tasks)
        ticket = self._next_ticket
        self._next_ticket += 1
        self._batches[ticket] = BatchState(len(tasks))
        self._pending.extend((ticket, index, task) for index, task in enumerate(tasks))
        return ticket

    def batch(self, ticket: int) -> BatchState:
        try:
            return self._batches[ticket]
        except KeyError:
            raise ValueError(f"unknown or already-drained ticket {ticket!r}") from None

    def batch_done(self, ticket: int) -> bool:
        return self.batch(ticket).remaining == 0

    def finish_batch(self, ticket: int) -> BatchState:
        """Remove and return a completed batch's state (drain claims it)."""
        return self._batches.pop(ticket)

    @property
    def outstanding_tickets(self) -> List[int]:
        return sorted(self._batches)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def fail_all_outstanding(self, reason: str) -> None:
        """Mark every incomplete batch failed (pool/coordinator shutdown),
        so a later drain raises instead of waiting on workers that no
        longer exist."""
        self._pending.clear()
        self._leases.clear()
        self._deaths.clear()
        self._outstanding.clear()
        for batch in self._batches.values():
            if batch.remaining:
                batch.errors.append(reason)
                batch.remaining = 0

    # ------------------------------------------------------------------
    # Pull side (peer-facing, via the transport)
    # ------------------------------------------------------------------
    def next_task(self, peer: Any, now: Optional[float] = None) -> Optional[Lease]:
        """Grant the oldest pending task to ``peer`` as a fresh lease, or
        ``None`` when the queue is empty (the coordinator parks the pull,
        the pool leaves the slot idle)."""
        if not self._pending:
            return None
        if now is None:
            now = time.monotonic()
        item = self._pending.popleft()
        lease = Lease(self._next_lease, peer, item, now + self.lease_timeout)
        self._next_lease += 1
        self._leases[lease.lease_id] = lease
        self._outstanding[peer] = self._outstanding.get(peer, 0) + 1
        return lease

    def outstanding_for(self, peer: Any) -> int:
        """Live leases held by ``peer`` — the number the coordinator
        compares against the peer's advertised capacity before granting."""
        return self._outstanding.get(peer, 0)

    def complete(
        self, lease_id: int, error: Optional[str], payload: Any, nbytes: int = 0
    ) -> bool:
        """Record a result for a leased task.

        Returns whether the lease was live.  Unknown/expired lease ids —
        a peer we already gave up on finishing late, or a duplicate
        delivery — are dropped without touching the batch, which is what
        keeps resubmission bit-safe: exactly one completion per task slot
        ever lands.
        """
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            self.stale_completions += 1
            return False
        self._forget_outstanding(lease.peer)
        ticket, index, _ = lease.item
        self._record(ticket, index, error, payload, nbytes)
        return True

    def _forget_outstanding(self, peer: Any) -> None:
        count = self._outstanding.get(peer, 0) - 1
        if count > 0:
            self._outstanding[peer] = count
        else:
            self._outstanding.pop(peer, None)

    def lease_for(self, lease_id: int) -> Optional[Lease]:
        return self._leases.get(lease_id)

    def rescind(self, lease_id: int) -> None:
        """Undo a grant whose dispatch failed before the peer could have
        started it (send error mid-handoff): requeue at the front without
        charging the retry budget — the task never ran, so this loss
        cannot be its fault."""
        lease = self._leases.pop(lease_id, None)
        if lease is not None:
            self._forget_outstanding(lease.peer)
            self.free_requeues += 1
            self._pending.appendleft(lease.item)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def release_peer(self, peer: Any, charge: bool = True) -> List[WorkItem]:
        """A peer disconnected (or was marked suspect): requeue
        everything it held.

        With ``charge=True`` each lost task is charged one retry (the
        peer died *while running it*) and tasks over budget fail their
        batch.  ``charge=False`` is for
        losses that are provably the transport's fault — a corrupt frame
        forced the drop, the task itself is blameless — and requeues
        without touching the budget.  Returns the items requeued.
        """
        lost = [lease for lease in self._leases.values() if lease.peer == peer]
        requeued = []
        for lease in lost:
            del self._leases[lease.lease_id]
            self._forget_outstanding(lease.peer)
            if self._requeue(lease.item, charge=charge):
                requeued.append(lease.item)
        return requeued

    def expire_leases(self, now: Optional[float] = None) -> List[WorkItem]:
        """Requeue every lease past its deadline; returns the items."""
        if now is None:
            now = time.monotonic()
        expired = [lease for lease in self._leases.values() if lease.deadline <= now]
        requeued = []
        for lease in expired:
            del self._leases[lease.lease_id]
            self._forget_outstanding(lease.peer)
            self.leases_expired += 1
            if self._requeue(lease.item):
                requeued.append(lease.item)
        return requeued

    def _requeue(self, item: WorkItem, charge: bool = True) -> bool:
        """Front-of-queue resubmission under the retry budget.
        Returns whether the item went back in the queue (False → its
        batch was charged an error instead)."""
        ticket, index, _ = item
        if not charge:
            self.free_requeues += 1
            self._pending.appendleft(item)
            return True
        deaths = self._deaths.get((ticket, index), 0) + 1
        self._deaths[(ticket, index)] = deaths
        self.charged_losses += 1
        if deaths > self.max_task_retries:
            self.tasks_failed += 1
            self._record(
                ticket,
                index,
                f"worker died {deaths} time(s) while running task "
                f"{index} of batch {ticket}; giving up after "
                f"{self.max_task_retries} "
                f"retr{'y' if self.max_task_retries == 1 else 'ies'}",
                None,
            )
            return False
        # Front of the queue: the lost task is the oldest outstanding
        # work, so it should not wait behind a long backlog.
        self._pending.appendleft(item)
        return True

    def fault_counters(self) -> Dict[str, int]:
        """The scheduler's slice of the coordinator's FaultReport."""
        return {
            "charged_retries": self.charged_losses,
            "free_requeues": self.free_requeues,
            "lease_expiries": self.leases_expired,
            "tasks_failed": self.tasks_failed,
            "stale_completions": self.stale_completions,
        }

    def _record(
        self, ticket: int, index: int, error: Optional[str], payload: Any, nbytes: int = 0
    ) -> None:
        batch = self._batches.get(ticket)
        if batch is None:  # late completion for a drained/failed batch
            return
        batch.stats.bytes_up += nbytes
        self._deaths.pop((ticket, index), None)
        batch.remaining -= 1
        if error is not None:
            batch.errors.append(error)
        else:
            batch.results[index] = payload
