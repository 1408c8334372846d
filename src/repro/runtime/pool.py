"""Persistent worker pool: fan-out without a fork per call.

:class:`WorkerPool` keeps its worker processes alive.  Workers are
spawned once (lazily, on first use) and then serve every subsequent
batch; tasks travel to them over pipes, so the per-batch cost is one
pickle per task rather than one fork per worker.  With shared-memory
datasets (:meth:`repro.data.dataset.ArrayDataset.share`) that pickle is a
few hundred bytes of metadata + indices, independent of the data size.

The pool is the pipe transport over the shared dispatch core
(:mod:`repro.runtime.dispatch`): scheduling, retry budgets, the
version-addressed broadcast cache and byte accounting live there, and
are the same code the TCP cluster (:mod:`repro.cluster`) runs.  What is
here is what pipes add: spawning and respawning worker processes, and
noticing their deaths.

Two-level API:

``submit(tasks) -> ticket`` / ``drain(ticket) -> results``
    The pool-native interface.  ``submit`` enqueues a batch and starts
    feeding idle workers immediately; ``drain`` blocks until that batch
    is complete and returns its results in submission order.  Several
    batches may be outstanding at once (they share the worker set), which
    is the seam the event-driven federation engine
    (:mod:`repro.federated.engine`) and the non-blocking deletion service
    (:class:`~repro.unlearning.service.UnlearningService`) build
    on: they submit one ticket per client task / flush window and drain
    tickets out of order as their simulated events fire.  ``poll(ticket)``
    makes progress without blocking and reports whether a specific batch
    has completed; ``outstanding_tickets`` lists the batches still owed.

``run_tasks(tasks)``
    The standard :class:`~repro.runtime.backends.Backend` interface —
    ``drain(submit(tasks))`` — so every existing ``backend=`` call site
    (federated rounds, the unlearning protocols, SISA chains, sharded
    clients) can use a pool as a drop-in replacement.

Fault tolerance
---------------
Each worker runs at most one task at a time and the scheduler remembers
the lease, so a worker that dies mid-task (OOM kill, segfault, stray
``os._exit``) loses exactly one known task.  The pool respawns the worker
and the scheduler resubmits the task; a task that keeps killing its
workers fails the batch with :class:`~repro.runtime.backends.BackendError`
after ``max_task_retries`` respawns instead of looping forever.  Ordinary
exceptions raised *inside* a task are caught in the worker and reported
back with their traceback.

Transport
---------
Payloads travel as ``pickle.HIGHEST_PROTOCOL`` frames with protocol-5
**out-of-band buffers** (:mod:`repro.runtime.wire`), so large ndarray
payloads (model states, unshared datasets, results) are written straight
from their own memory instead of being copied into one big pickle
byte-string first.  Bytes moved, and which wire form each broadcast
took, are accounted per batch (:meth:`WorkerPool.pop_ticket_stats`) and
cumulatively (:attr:`WorkerPool.transport_stats`) — the numbers behind
the per-round byte counts in
:class:`~repro.federated.simulation.RoundRecord`.
"""

from __future__ import annotations

import weakref
from multiprocessing import connection
from typing import Any, List, Optional, Sequence

from .backends import usable_cpus
from .dispatch import (
    BroadcastCache,
    DispatchBackend,
    Dispatcher,
    serve_task,
    worker_context,
)
from .wire import recv_payload, send_payload


def _pool_worker(task_reader, result_writer) -> None:
    """Worker body: serve tasks from a pipe until told to stop.

    A ``None`` payload is the shutdown sentinel; every other item is
    handed to :func:`~repro.runtime.dispatch.serve_task`.
    """
    cache = BroadcastCache()

    def reply(result) -> None:
        send_payload(result_writer, result)

    while True:
        try:
            item, _ = recv_payload(task_reader)
        except (EOFError, OSError):
            return  # parent is gone
        if item is None:
            return
        serve_task(cache, item, reply)


class _WorkerSlot:
    """One live worker: process, pipes, and broadcast-cache mirror.

    A respawned worker gets a fresh slot, so its mirror starts cold and
    the first broadcast after a death takes the full-state path.
    """

    __slots__ = ("process", "task_writer", "result_reader", "mirror")

    def __init__(self, context) -> None:
        task_reader, task_writer = context.Pipe(duplex=False)
        result_reader, result_writer = context.Pipe(duplex=False)
        self.process = context.Process(
            target=_pool_worker, args=(task_reader, result_writer), daemon=True
        )
        self.process.start()
        # Drop the parent's copies of the child ends so a dead worker
        # shows up as EOF on result_reader instead of a silent hang.
        task_reader.close()
        result_writer.close()
        self.task_writer = task_writer
        self.result_reader = result_reader
        self.mirror = BroadcastCache()

    def send(self, message: Any) -> int:
        return send_payload(self.task_writer, message)

    def shutdown(self, timeout: float = 2.0) -> None:
        try:
            self.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        self.task_writer.close()
        self.result_reader.close()


def _shutdown_slots(slots: List[_WorkerSlot]) -> None:
    """Module-level teardown target for ``weakref.finalize`` (must not
    hold a reference back to the pool)."""
    for slot in slots:
        slot.shutdown()
    slots.clear()


class WorkerPool(Dispatcher):
    """A warm set of worker processes serving task batches over pipes.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``max(2, usable_cpus())`` like the other
        parallel backends.  Workers start lazily on first use and persist
        until :meth:`close` (or interpreter exit — they are daemons).
    max_task_retries:
        How many times a task whose worker died is resubmitted on a fresh
        worker before the batch fails with :class:`BackendError`.
    """

    def __init__(self, max_workers: Optional[int] = None, max_task_retries: int = 1) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        # Slot index is the scheduler's peer key.  Leases never expire: a
        # pipe reports a lost worker by EOF / ``is_alive``, never by
        # silence.
        super().__init__(lease_timeout=float("inf"), max_task_retries=max_task_retries)
        self.max_workers = max_workers
        self._slots: List[_WorkerSlot] = []
        self._finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return bool(self._slots)

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (stable across batches — that is the
        whole point of the pool)."""
        return [slot.process.pid for slot in self._slots]

    def _ensure_started(self) -> None:
        if self._slots:
            return
        context = worker_context()
        workers = self.max_workers or max(2, usable_cpus())
        self._slots = [_WorkerSlot(context) for _ in range(workers)]
        # GC-safe teardown that does not resurrect the pool.
        self._finalizer = weakref.finalize(self, _shutdown_slots, self._slots)

    def close(self) -> None:
        """Stop the workers.  The pool restarts lazily if used again.

        Batches still outstanding (submitted but not fully drained) are
        failed rather than stranded: their undelivered tasks are marked
        as errors so a later :meth:`drain` raises :class:`BackendError`
        immediately instead of waiting on workers that no longer exist.
        """
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _shutdown_slots(self._slots)
        self._slots = []
        self.scheduler.fail_all_outstanding(
            "worker pool closed with task(s) outstanding"
        )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The Dispatcher's transport half
    # ------------------------------------------------------------------
    def submit(self, tasks: Sequence[Any]) -> int:
        self._ensure_started()
        return super().submit(tasks)

    def run_tasks(self, tasks: Sequence[Any]) -> List[Any]:
        """The stock backend interface: submit + drain one batch."""
        return self.drain(self.submit(tasks))

    def _feed_idle(self) -> None:
        scheduler = self.scheduler
        for index, slot in enumerate(self._slots):
            if not scheduler.has_pending:
                return
            if scheduler.outstanding_for(index):
                continue  # one task per worker at a time
            if not slot.process.is_alive():
                slot = self._respawn(index)
            lease = scheduler.next_task(index)
            try:
                self._dispatch(lease, slot.mirror, slot.send)
            except (BrokenPipeError, OSError):
                # Worker died between the liveness check and the send.
                # The task never started, so this death cannot be its
                # fault — requeue without charging its retry budget.
                scheduler.rescind(lease.lease_id)
                self._respawn(index)

    def pump(self, timeout: float) -> None:
        """Feed idle workers, collect finished results, detect and
        repair dead workers."""
        self._feed_idle()
        # Wait only on the readers of slots that owe a result.
        busy = {
            slot.result_reader: index
            for index, slot in enumerate(self._slots)
            if self.scheduler.outstanding_for(index)
        }
        # With nothing in flight (everything was lost to deaths handled
        # below, or the batch only had inline work) there is nothing to
        # wait on.
        ready = connection.wait(list(busy), timeout) if busy else []
        if not ready:
            self._reap_dead()
            return
        for reader in ready:
            index = busy[reader]
            if not self._receive(self._slots[index]):
                self._handle_death(index)

    def _receive(self, slot: _WorkerSlot) -> bool:
        """Record one reply from ``slot``; False when its pipe is dead."""
        try:
            reply, nbytes = recv_payload(slot.result_reader)
        except (EOFError, OSError):
            return False
        self._totals.bytes_up += nbytes
        self._complete(slot.mirror, reply, nbytes)
        return True

    def _reap_dead(self) -> None:
        for index, slot in enumerate(self._slots):
            if self.scheduler.outstanding_for(index) and not slot.process.is_alive():
                # Drain any result the worker managed to send before dying.
                if slot.result_reader.poll(0) and self._receive(slot):
                    continue
                self._handle_death(index)

    def _handle_death(self, index: int) -> None:
        self._respawn(index)
        self.scheduler.release_peer(index)

    def _respawn(self, index: int) -> _WorkerSlot:
        self._slots[index].shutdown(timeout=0.5)
        self._slots[index] = slot = _WorkerSlot(worker_context())
        return slot


class PoolBackend(DispatchBackend):
    """A :class:`~repro.runtime.backends.Backend` over a persistent
    :class:`WorkerPool`.

    One ``PoolBackend`` instance keeps its workers warm across every
    ``run_tasks`` call — pass the same instance (or the ``"pool"`` spec,
    which resolves to a process-wide shared instance) to
    :class:`FederatedSimulation`, :class:`SisaEnsemble` and the
    unlearning protocols and they all reuse the same workers.  Tasks are
    pickled to the workers, so pair it with shared-memory datasets for
    large data (see :meth:`repro.data.dataset.ArrayDataset.share`).
    """

    name = "pool"

    def __init__(self, max_workers: Optional[int] = None, max_task_retries: int = 1) -> None:
        self.pool = WorkerPool(max_workers=max_workers, max_task_retries=max_task_retries)
        super().__init__(max_workers, max_task_retries)

    @property
    def running(self) -> bool:
        return self.pool.running

    def _dispatcher(self, start: bool = True) -> WorkerPool:
        return self.pool  # starts its workers itself, on first submit

    def run_tasks(self, tasks: Sequence[Any]) -> List[Any]:
        # Defined on this class, not inherited: the benchmark's tracer
        # wraps ``PoolBackend.run_tasks`` through the class ``__dict__``.
        return self._run_batch(tasks)

    def close(self) -> None:
        self.pool.close()
