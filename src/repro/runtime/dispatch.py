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
    and the **content-addressed worker store**: every array-bearing task
    field — the state dicts named in :data:`LIFTED_STATE_FIELDS` and every
    by-value :class:`~repro.data.dataset.ArrayDataset` — is lifted out of
    the task's pickle and shipped against the receiver's
    :class:`WorkerStore` mirror: a bare version *ref* when the receiver
    already holds it, a compressed lossless XOR *delta* of a state against
    the newest state the receiver holds under the same field with the
    same structure, the *full* payload otherwise (first contact, or a
    respawned / reconnected receiver, whose fresh mirror starts empty).
    Inside a federated round every client carries the same global model,
    and across rounds and calls a client carries the same dataset and an
    unlearning run the same teacher, so each crosses to a receiver once
    and the rest are refs.
:func:`serve_task`
    The worker half: install the sends into the local store, unpickle the
    task, refill its lifted fields, run it, reply ``(lease_id, error,
    payload, echo)``.
:class:`DispatchBackend`
    The :class:`~repro.runtime.backends.Backend` + streaming
    ``submit``/``drain``/``poll`` surface both backends present.

A transport supplies only what differs: how a message reaches a
receiver (``send``), how results and deaths are noticed (``pump``), and
which receivers are idle (``_feed_idle``).

Determinism: tasks carry their model state and exact RNG position (see
:mod:`repro.runtime.task`), so results are bit-identical to the serial
backend no matter which receiver runs what, in what order, or after how
many resubmissions — and the store preserves that, because a version is
a content hash and the delta encoding is bytewise-lossless by
construction.
"""

from __future__ import annotations

import copy
import multiprocessing
import pickle
import traceback
import zlib
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..data.dataset import ArrayDataset, SharedArrayDataset
from .backends import Backend, BackendError, SerialBackend, usable_cpus
from .codec import (
    BroadcastDelta,
    BroadcastFull,
    BroadcastRef,
    dataset_version,
    decode_broadcast,
    encode_broadcast,
    same_structure,
    state_version,
)
from .scheduler import Lease, PullScheduler
from .wire import TransportStats

#: The task fields that hold a model's state dict: a stock task's start
#: model (``TrainTask``/``StackedTask``) or chain start (``ChainTask``), and
#: the unlearning protocols' teachers (Goldfish's frozen teacher, B3's
#: competent and incompetent teachers).  The dispatcher lifts each into the
#: receiver's store; a by-value dataset is lifted by its type instead.
LIFTED_STATE_FIELDS = (
    "model_state",
    "init_state",
    "teacher_state",
    "competent_state",
    "incompetent_state",
)

#: Everything a task carries besides its data: the lifted states plus the
#: protocol state that rides in the task's pickle (Goldfish's teacher
#: logits after round 0, B2's FIM estimate).  A serial run charges a task
#: the arrays of these fields (``federated.simulation``).
CARRIED_STATE_FIELDS = LIFTED_STATE_FIELDS + ("teacher_logits", "fim_state")

# (version, base_version) delta payloads kept: one federation round plus
# interleaved deletion-chain versions.
_DELTA_MEMO_KEEP = 8

# Entries one receiver's store holds, least recently used evicted first.
# A Goldfish request on ``unlearn_headline`` uses ω^0, the teacher, round
# 1's model and the datasets of the clients a worker trains — eight when
# all five land on one worker — so the next request on the same scenario
# finds everything but its new round-1 model, however the clients split
# (usually three and two).  Full of LeNet-5 states and datasets a store
# holds ≈ 2.2 MB.  A federated round installs one new model and refs it,
# so ``fed_fanout``'s 33 rounds per child evict 25 times under this bound.
_STORE_KEEP = 8


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


class WorkerStore:
    """One receiver's store: ``version -> (field, payload)``, least
    recently used first, at most :data:`_STORE_KEEP` entries.

    A payload is a state dict or an :class:`~repro.data.dataset.ArrayDataset`,
    addressed by its content hash, so one payload is held once whichever
    field or task carries it.  Worker-side it is the store itself;
    parent-side it is the *mirror* of that store, which is what lets
    dispatch decide ref vs delta vs full without a round trip.  Both sides
    apply the same sends in the same order (the channel is FIFO) through
    :meth:`keep`, so they hold the same entries in the same order and
    evict alike.  ``items`` counts the task items applied, on either side.
    """

    __slots__ = ("entries", "items")

    def __init__(self) -> None:
        self.entries: "OrderedDict[str, Tuple[str, Any]]" = OrderedDict()
        self.items = 0

    def keep(self, field: str, version: str, payload: Any) -> None:
        """Make ``version`` the most recently used entry — installed under
        ``field`` when new, evicting the least recently used past the
        bound."""
        if version in self.entries:
            self.entries.move_to_end(version)
            return
        self.entries[version] = (field, payload)
        if len(self.entries) > _STORE_KEEP:
            self.entries.popitem(last=False)

    def encode(self, field: str, payload: Any, version: str, memo: Dict) -> Any:
        """The smallest wire form of ``payload`` against this mirror: a
        ref when held; else a delta of a state against the most recently
        used state installed under ``field`` with the same structure, when
        smaller; else full.  A dataset is never a delta base — two clients'
        datasets are different samples."""
        if version in self.entries:
            return BroadcastRef(version)
        base_version = base = None
        if isinstance(payload, dict):
            for held in reversed(self.entries):
                held_field, held_payload = self.entries[held]
                if (
                    held_field == field
                    and isinstance(held_payload, dict)
                    and same_structure(payload, held_payload)
                ):
                    base_version, base = held, held_payload
                    break
        return encode_broadcast(payload, version, base_version, base, delta_cache=memo)

    def install(self, field: str, wire: Any) -> Any:
        """Decode one send against this store and keep it; returns the
        payload.  Raises :class:`ValueError` when a ref or delta names a
        version this store does not hold."""
        named = wire.base_version if isinstance(wire, BroadcastDelta) else wire.version
        held = self.entries.get(named)
        payload, version = decode_broadcast(
            wire, named if held else None, held[1] if held else None
        )
        self.keep(field, version, payload)
        return payload

    def echo(self) -> Tuple[int, int]:
        """``(items, digest)``: the items applied and a CRC of the held
        versions in order — equal on both sides when the stores are.  Not
        a SHA: a worker's first SHA initialises OpenSSL, 1.2 MB of
        resident memory per worker."""
        return self.items, zlib.crc32("".join(self.entries).encode("ascii"))


def _lifted(task: Any) -> Iterator[Tuple[str, Any]]:
    """``(field, payload)`` for every field of ``task`` the store carries,
    in field order: the :data:`LIFTED_STATE_FIELDS` it sets and every
    by-value dataset.  A shared-memory dataset already pickles as a
    handle, so it stays in the pickle, unhashed."""
    for field, value in getattr(task, "__dict__", {}).items():
        if value is None:
            continue
        if field in LIFTED_STATE_FIELDS or (
            isinstance(value, ArrayDataset) and not isinstance(value, SharedArrayDataset)
        ):
            yield field, value


def serve_task(store: WorkerStore, item: Tuple, send: Callable[[Tuple], Any]) -> None:
    """Worker body for one ``(lease_id, task_bytes, sends)`` item, where
    ``sends`` is a tuple of ``(field, wire)`` pairs.

    The sends are installed *first*, in order (that keeps this worker's
    store in lockstep with the parent's mirror even when the task itself
    turns out to be bad); a send the store cannot resolve empties it, so
    the echo no longer matches the mirror and the parent empties that too.
    Then the task is unpickled, its lifted fields refilled and run inside
    the try block, so a task that cannot be reconstructed or that raises
    is reported as that task's failure rather than crashing the worker.
    Every reply echoes :meth:`WorkerStore.echo`.
    """
    lease_id, task_bytes, sends = item
    store.items += 1
    try:
        try:
            payloads = [(field, store.install(field, wire)) for field, wire in sends]
        except Exception:
            store.entries.clear()
            raise
        task = pickle.loads(task_bytes)
        for field, payload in payloads:
            setattr(task, field, payload)
        reply = (lease_id, None, task.run(), store.echo())
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:
        reply = (
            lease_id,
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}",
            None,
            store.echo(),
        )
    try:
        send(reply)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        # The result itself cannot be pickled.  Pickling happens before
        # the first byte is written, so the stream is intact: report it
        # as this task's failure instead of dying with the lease held.
        send((lease_id, f"{type(exc).__name__}: {exc}", None, store.echo()))


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
        # state sent to W receivers holding the same base deflates once,
        # not W times.  Insertion-ordered dict pruned to the freshest few pairs.
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
        self, lease: Lease, mirror: WorkerStore, send: Callable[[Tuple], int]
    ) -> int:
        """Ship one leased task through ``send``; returns the bytes it
        reported written, or 0 when the task was completed inline.

        ``send`` failures propagate untouched — the transport knows its
        own error taxonomy, rescinds the lease and replaces the receiver
        with its mirror.  The wire forms are derived afresh on every
        dispatch, so a requeued task landing on a fresh (empty-mirror)
        receiver ships its payloads in full automatically.
        """
        ticket, _, task = lease.item
        lifted = list(_lifted(task))
        to_pickle = task
        if lifted:
            to_pickle = copy.copy(task)
            for field, _ in lifted:
                setattr(to_pickle, field, None)
            if getattr(to_pickle, "model_version", None) is not None:
                # The version travels inside the send's wire form; the
                # worker never reads the task's copy.
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
        # The channel is FIFO and the worker installs the sends in order
        # before anything that can fail, so the mirror advances send by
        # send, as the worker's store will.
        sends = []
        for field, payload in lifted:
            if isinstance(payload, dict):
                # Callers that broadcast one state to a whole cohort stamp
                # its hash once (TrainTask.model_version); everything else
                # is hashed here.
                stamped = getattr(task, "model_version", None) if field == "model_state" else None
                version = stamped or state_version(payload)
            else:
                version = dataset_version(payload)
            sends.append((field, mirror.encode(field, payload, version, self._delta_memo)))
            mirror.keep(field, version, payload)
        while len(self._delta_memo) > _DELTA_MEMO_KEEP:
            self._delta_memo.pop(next(iter(self._delta_memo)))
        mirror.items += 1
        sent = send((lease.lease_id, task_bytes, tuple(sends)))
        for stats in targets:
            stats.bytes_down += sent
            for field, wire in sends:
                if field not in LIFTED_STATE_FIELDS:
                    continue  # a dataset is placed, not broadcast
                if isinstance(wire, BroadcastFull):
                    stats.broadcast_full += 1
                elif isinstance(wire, BroadcastDelta):
                    stats.broadcast_delta += 1
                else:
                    stats.broadcast_ref += 1
        return sent

    def _complete(self, mirror: WorkerStore, reply: Tuple, nbytes: int) -> None:
        """Record one worker reply against its lease (stale and duplicate
        leases are dropped by the scheduler).

        Every reply echoes the worker's store (:meth:`WorkerStore.echo`).
        When the worker has applied every item sent to it, its store must
        equal the mirror; a mismatch means a send failed to install, which
        emptied the worker's store, so emptying the mirror makes the next
        dispatches ship full payloads and restores sync.  A reply to an
        earlier item (another is still in flight) is not judged.
        """
        lease_id, error, payload, echoed = reply
        if (
            isinstance(echoed, tuple)
            and echoed[:1] == (mirror.items,)
            and echoed != mirror.echo()
        ):
            mirror.entries.clear()
        self.scheduler.complete(lease_id, error, payload, nbytes)


class DispatchBackend(Backend):
    """The :class:`Backend` + streaming surface over a lazily started
    :class:`Dispatcher`: ``submit``/``drain``/``poll`` tickets for the
    deletion service, per-ticket
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
