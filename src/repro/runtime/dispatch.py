"""The dispatch core shared by the worker pool and the cluster.

:class:`~repro.runtime.pool.WorkerPool` (pipe slots) and
:class:`~repro.cluster.coordinator.Coordinator` (TCP peers) are two
*transports* over the machinery in this module; everything that must
behave identically on both — and therefore everything that keeps them
bit-identical to serial — exists here once:

:class:`Dispatcher`
    The parent half.  Owns the :class:`~repro.runtime.scheduler.PullScheduler`
    (tickets, leases, retry budgets, exactly-once completion), the
    per-ticket and cumulative :class:`~repro.runtime.wire.TransportStats`,
    and the **version-addressed broadcast**: a task's ``model_state`` /
    ``init_state`` is lifted out of its pickle and shipped against the
    receiver's :class:`BroadcastCache` mirror — a bare version *ref* when
    the receiver already holds it, a compressed lossless XOR *delta*
    against a different version of the same structure, the *full* state
    only on a cold cache (first contact, or a respawned / reconnected
    receiver, whose fresh mirror starts empty).  Inside a federated round
    every client carries the same global model, so each receiver gets it
    once and the rest of the round's tasks are refs.
:func:`serve_task`
    The worker half: decode the broadcast into the local cache, unpickle
    and run the task, reply ``(lease_id, error, payload, cache_version)``.
:class:`DispatchBackend`
    The :class:`~repro.runtime.backends.Backend` + streaming
    ``submit``/``drain``/``poll`` surface both backends present.

A transport supplies only what differs: how a message reaches a
receiver (``send``), how results and deaths are noticed (``pump``), and
which receivers are idle (``_feed_idle``).

Determinism: tasks carry their model state and exact RNG position (see
:mod:`repro.runtime.task`), so results are bit-identical to the serial
backend no matter which receiver runs what, in what order, or after how
many resubmissions — and the broadcast cache preserves that, because its
delta encoding is bytewise-lossless by construction.
"""

from __future__ import annotations

import copy
import multiprocessing
import pickle
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .backends import Backend, BackendError, SerialBackend, usable_cpus
from .codec import (
    BroadcastDelta,
    BroadcastFull,
    BroadcastRef,
    decode_broadcast,
    encode_broadcast,
    state_version,
)
from .scheduler import Lease, PullScheduler
from .wire import TransportStats

# Task attributes the broadcast cache can lift out of the pickled task
# (TrainTask's broadcast basis, ChainTask's chain start), in probe order.
_BROADCAST_FIELDS = ("model_state", "init_state")

# (version, base_version) delta payloads kept: one federation round plus
# interleaved deletion-chain versions.
_DELTA_MEMO_KEEP = 8


def worker_context():
    """The multiprocessing context every pool worker and locally spawned
    node agent starts under.

    Fork where available (cheap, inherits the parent's module state so
    even late-defined task classes unpickle); spawn otherwise — tasks
    are pickled to the workers either way, so spawn only loses closure
    factories, which fall back to inline execution at dispatch.

    Starts the resource tracker BEFORE anything forks, so workers
    inherit the parent's tracker.  Otherwise a worker that first touches
    shared memory (attaching a SharedArrayDataset) spawns its own
    tracker, which mis-reports the parent-owned blocks as leaked at
    worker shutdown.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
    except Exception:
        pass  # tracker is an optimisation for warnings, never fatal
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


class BroadcastCache:
    """One receiver's model cache: the last broadcast state it was sent,
    addressed by a stable content hash.

    Worker-side it is the cache itself; parent-side it is the *mirror*
    of that cache (what the last full/delta send installed), which is
    what lets dispatch decide ref vs delta vs full without a round trip.
    """

    __slots__ = ("version", "state")

    def __init__(self) -> None:
        self.version: Optional[str] = None
        self.state = None


def serve_task(cache: BroadcastCache, item: Tuple, send: Callable[[Tuple], Any]) -> None:
    """Worker body for one ``(lease_id, task_bytes, broadcast)`` item.

    The broadcast is applied *first* (it keeps this worker's cache in
    lockstep with the parent's mirror even when the task itself turns
    out to be bad), then the task is unpickled and run inside the try
    block, so a task that cannot be reconstructed or that raises is
    reported as that task's failure rather than crashing the worker.
    Every reply echoes the worker's current cache version, letting the
    parent detect and repair any cache divergence by falling back to
    full-state sends.
    """
    lease_id, task_bytes, broadcast = item
    try:
        state = None
        if broadcast is not None:
            field, wire = broadcast
            state, version = decode_broadcast(wire, cache.version, cache.state)
            cache.version, cache.state = version, state
        task = pickle.loads(task_bytes)
        if broadcast is not None:
            setattr(task, field, state)
        reply = (lease_id, None, task.run(), cache.version)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        reply = (
            lease_id,
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            None,
            cache.version,
        )
    try:
        send(reply)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # The result itself cannot be pickled.  Pickling happens before
        # the first byte is written, so the stream is intact: report it
        # as this task's failure instead of dying with the lease held.
        send((lease_id, f"{type(exc).__name__}: {exc}", None, cache.version))


class Dispatcher:
    """Parent half of a multi-process backend, minus the transport.

    Subclasses implement :meth:`pump` and :meth:`_feed_idle`, and call
    :meth:`_dispatch` / :meth:`_complete` as leases are granted and
    replies arrive.
    """

    def __init__(self, lease_timeout: float, max_task_retries: int) -> None:
        self.scheduler = PullScheduler(
            lease_timeout=lease_timeout, max_task_retries=max_task_retries
        )
        self._totals = TransportStats()  # cumulative across the dispatcher's life
        self._ticket_stats: Dict[int, TransportStats] = {}
        # (version, base_version) -> deflated XOR payload: one new global
        # state broadcast to W same-cache receivers deflates once, not W
        # times.  Insertion-ordered dict pruned to the freshest few pairs.
        self._delta_memo: Dict[Tuple[str, str], bytes] = {}

    def pump(self, timeout: float) -> None:
        """Collect replies for up to ``timeout`` seconds, repair lost
        receivers, feed idle ones."""
        raise NotImplementedError

    def _feed_idle(self) -> None:
        """Grant pending work to every receiver with spare capacity."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # submit / drain / poll
    # ------------------------------------------------------------------
    def submit(self, tasks: Sequence[Any]) -> int:
        """Enqueue a batch; returns a ticket for :meth:`drain`.

        Idle receivers start on the batch immediately; the call does not
        block on task completion.  One exception: a task that cannot be
        pickled (e.g. a closure factory) falls back to running inline,
        synchronously, at dispatch — callers relying on submit/drain
        overlap should keep tasks picklable.
        """
        ticket = self.scheduler.add_batch(tasks)
        self._ticket_stats[ticket] = self.scheduler.batch(ticket).stats
        if len(self._ticket_stats) > 1024:
            # Stats nobody popped for long-drained batches: shed oldest.
            live = set(self.scheduler.outstanding_tickets)
            for stale in sorted(self._ticket_stats):
                if stale not in live:
                    del self._ticket_stats[stale]
                if len(self._ticket_stats) <= 512:
                    break
        self._feed_idle()
        return ticket

    def drain(self, ticket: int) -> List[Any]:
        """Block until batch ``ticket`` completes; return results in
        submission order.  Raises :class:`BackendError` if any of its
        tasks failed or exhausted their retry budget."""
        batch = self.scheduler.batch(ticket)  # raises on unknown ticket
        while batch.remaining:
            self.pump(timeout=0.2)
        return self._claim(ticket)

    def _claim(self, ticket: int) -> List[Any]:
        batch = self.scheduler.finish_batch(ticket)
        if batch.errors:
            raise BackendError(
                f"{len(batch.errors)} task(s) failed under {type(self).__name__}; "
                "first:\n" + batch.errors[0]
            )
        return batch.results

    def poll(self, ticket: int) -> bool:
        """Non-blocking progress + completion check for one batch.

        Feeds idle receivers, collects any results that have already
        arrived (for *every* outstanding ticket, not just this one) and
        returns whether batch ``ticket`` is complete — i.e. whether
        :meth:`drain` would return without blocking.  Errors are only
        raised at drain time, so a completed-with-failure batch polls as
        ``True``.
        """
        batch = self.scheduler.batch(ticket)
        if batch.remaining:
            self.pump(timeout=0.0)
        return batch.remaining == 0

    @property
    def outstanding_tickets(self) -> List[int]:
        """Tickets submitted but not yet drained, oldest first."""
        return self.scheduler.outstanding_tickets

    # ------------------------------------------------------------------
    # Transport accounting
    # ------------------------------------------------------------------
    @property
    def transport_stats(self) -> TransportStats:
        """Cumulative bytes/wire-form counters over the dispatcher's life."""
        total = TransportStats()
        total.add(self._totals)
        return total

    def pop_ticket_stats(self, ticket: int) -> Optional[TransportStats]:
        """Claim one batch's transport stats (task and result bytes,
        broadcast wire forms).  Complete once the batch is drained;
        ``None`` if the ticket is unknown or its stats were already
        claimed."""
        return self._ticket_stats.pop(ticket, None)

    # ------------------------------------------------------------------
    # One leased task out, one reply in
    # ------------------------------------------------------------------
    def _dispatch(
        self, lease: Lease, mirror: BroadcastCache, send: Callable[[Tuple], int]
    ) -> int:
        """Ship one leased task through ``send``; returns the bytes it
        reported written, or 0 when the task was completed inline.

        ``send`` failures propagate untouched — the transport knows its
        own error taxonomy and rescinds the lease.  The wire form is
        derived afresh on every dispatch, so a requeued task landing on
        a fresh (cold-mirror) receiver takes the full-state path
        automatically.
        """
        ticket, _, task = lease.item
        field = next(
            (f for f in _BROADCAST_FIELDS if getattr(task, f, None) is not None), None
        )
        wire = None
        to_pickle = task
        if field is not None:
            state = getattr(task, field)
            # Callers that broadcast one state to a whole cohort stamp
            # its hash once (TrainTask.model_version); everything else
            # is hashed here.
            version = getattr(task, "model_version", None) or state_version(state)
            wire = encode_broadcast(
                state, version, mirror.version, mirror.state, delta_cache=self._delta_memo
            )
            while len(self._delta_memo) > _DELTA_MEMO_KEEP:
                self._delta_memo.pop(next(iter(self._delta_memo)))
            to_pickle = copy.copy(task)
            setattr(to_pickle, field, None)
            if getattr(to_pickle, "model_version", None) is not None:
                # The version travels inside the broadcast wire form;
                # the worker never reads the task's copy.
                to_pickle.model_version = None
        targets = [self._totals]
        if ticket in self._ticket_stats:  # not yet claimed by its owner
            targets.append(self._ticket_stats[ticket])
        try:
            task_bytes = pickle.dumps(to_pickle, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # Unpicklable task (e.g. a closure factory): run it inline
            # rather than failing the batch.
            for stats in targets:
                stats.inline_tasks += 1
            try:
                self.scheduler.complete(lease.lease_id, None, task.run())
            except Exception as exc:
                self.scheduler.complete(lease.lease_id, f"{type(exc).__name__}: {exc}", None)
            return 0
        sent = send((lease.lease_id, task_bytes, (field, wire) if wire else None))
        if wire is not None:
            # The channel is FIFO and the worker applies broadcasts
            # before anything that can fail, so the mirror advances at
            # send time.
            mirror.version = wire.version
            mirror.state = state
        for stats in targets:
            stats.bytes_down += sent
            if isinstance(wire, BroadcastFull):
                stats.broadcast_full += 1
            elif isinstance(wire, BroadcastDelta):
                stats.broadcast_delta += 1
            elif isinstance(wire, BroadcastRef):
                stats.broadcast_ref += 1
        return sent

    def _complete(self, mirror: BroadcastCache, reply: Tuple, nbytes: int) -> None:
        """Record one worker reply against its lease (stale and duplicate
        leases are dropped by the scheduler).

        Every reply echoes the worker's cache version.  The channel is
        FIFO, so a mismatch means the worker failed to apply a
        broadcast; dropping the mirror makes the next dispatch ship the
        full state, restoring sync.
        """
        lease_id, error, payload, echoed = reply
        if echoed != mirror.version:
            mirror.version = None
            mirror.state = None
        self.scheduler.complete(lease_id, error, payload, nbytes)


class DispatchBackend(Backend):
    """The :class:`Backend` + streaming surface over a lazily started
    :class:`Dispatcher`: ``submit``/``drain``/``poll`` tickets for the
    event-driven federation engine and the deletion service, per-ticket
    and cumulative transport stats, and the cold single-task shortcut.
    """

    def __init__(self, max_workers: Optional[int], max_task_retries: int) -> None:
        self.max_workers = max_workers
        #: Worker-loss budget per task (see :class:`PullScheduler`).
        self.max_task_retries = max_task_retries
        # Transport stats of the most recent run_tasks batch (None when it
        # was served inline by the serial shortcut).
        self.last_batch_stats: Optional[TransportStats] = None

    def worker_count(self) -> int:
        return self.max_workers or max(2, usable_cpus())

    @property
    def running(self) -> bool:
        raise NotImplementedError

    def _dispatcher(self, start: bool = True) -> Optional[Dispatcher]:
        """The live dispatcher; with ``start=False``, ``None`` rather
        than standing one up just to answer a stats query."""
        raise NotImplementedError

    def _run_batch(self, tasks: Sequence[Any]) -> List[Any]:
        tasks = list(tasks)
        if len(tasks) <= 1 and not self.running:
            # Not worth starting workers for a single task.
            self.last_batch_stats = None
            return SerialBackend().run_tasks(tasks)
        dispatcher = self._dispatcher()
        ticket = dispatcher.submit(tasks)
        results = dispatcher.drain(ticket)
        self.last_batch_stats = dispatcher.pop_ticket_stats(ticket)
        return results

    def submit(self, tasks: Sequence[Any]) -> int:
        return self._dispatcher().submit(tasks)

    def drain(self, ticket: int) -> List[Any]:
        return self._dispatcher().drain(ticket)

    def poll(self, ticket: int) -> bool:
        return self._dispatcher().poll(ticket)

    def pop_ticket_stats(self, ticket: int) -> Optional[TransportStats]:
        dispatcher = self._dispatcher(start=False)
        return None if dispatcher is None else dispatcher.pop_ticket_stats(ticket)

    @property
    def transport_stats(self) -> TransportStats:
        dispatcher = self._dispatcher(start=False)
        return TransportStats() if dispatcher is None else dispatcher.transport_stats

    @property
    def outstanding_tickets(self) -> List[int]:
        dispatcher = self._dispatcher(start=False)
        return [] if dispatcher is None else dispatcher.outstanding_tickets

    def __enter__(self) -> "DispatchBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        workers = self.max_workers if self.max_workers is not None else "auto"
        state = "up" if self.running else "down"
        return f"{type(self).__name__}(max_workers={workers}, {state})"
