"""Durable unlearning-as-a-service: a crash-safe deletion pipeline.

At production scale deletion arrives as a continuous stream, and a crash
mid-retrain must not silently drop a user's right-to-be-forgotten.  This
module promotes the in-memory :class:`~repro.unlearning.deletion_manager`
queue into a **persistent request pipeline**:

* every request moves through an explicit state machine —
  ``received → validated → scheduled → retraining → certified | failed``
  — and every transition is appended to a write-ahead
  :class:`~repro.unlearning.journal.Journal` *before* it takes effect in
  memory;
* a process that dies at any instant recovers on restart by replaying
  the journal (:meth:`UnlearningService.recover`): each (shard, slice)
  checkpoint is read once, from the on-disk sidecar of the newest
  certified window that rewrote it (or the base save), incomplete windows are
  resubmitted from their journaled index sets, and queued requests are
  re-queued — with recovered final shard states **bit-identical** to an
  uninterrupted run, because a retrain chain reads only its shard's
  checkpoints and index sets and trains each slice from the stream keyed
  by (seed, shard, slice), and windows on disjoint shards never
  influence each other's task content;
* windows are locked per shard, so disjoint-shard windows retrain
  concurrently on the pool — and concurrently with the federation
  rounds that follow their submission;
* the product metric — **time-to-forget** from submission to certified
  — is read per request by :class:`SlaMeter` (percentiles in rounds).

On-disk layout under the service directory::

    journal.jsonl          append-only WAL (one JSON record per line)
    service.json           static metadata (seed, version); read by
                           nothing, the ensemble's seed is in its manifest
    ensemble/              base SisaEnsemble.save() taken after fit():
                           shard<i>_slice<r>.ckpt, then manifest.json
                           (config, seed, partition, deleted set)
    windows/000007/        per-certified-window sidecar: for each shard
                           the window retrained, the checkpoints its
                           chain rewrote (shard<i>_slice<r>.ckpt for r
                           from the shard's first affected slice on);
                           the window's indices and first slices are in
                           its journaled plan

Every checkpoint is one flat file — a JSON header, then the raw array
bytes (:mod:`repro.nn.serialization`) — whose reader raises
:class:`ValueError` on anything malformed.  One seed and one request
stream write byte-identical directories.  The base save fsyncs its
checkpoints and writes its manifest last, so a service that died
mid-save starts fresh again.

A window retrains a shard from its first affected slice (after
``delete_begin``'s walk-back past slices a failed window dropped), so
only those slices change; the rest are byte-identical to the copy
already on disk, and the sidecar does not hold them again.  Each
shard's first slice rides in the window's ``retraining`` record, so
:meth:`UnlearningService.recover` reads each (shard, slice) from the
newest certified window that rewrote it, or from the base save.

Durability: a request's ``received`` record and its verdict are one
journal group (one fsync), and so are a window's ``scheduled`` and
``retraining`` records, which are durable before any chain is
submitted — three journal fsyncs per request under
:class:`~repro.unlearning.deletion_manager.ImmediatePolicy`.  Sidecars
are written to a temp directory, every checkpoint and the directory fsynced,
then atomically renamed and the ``windows/`` entry fsynced *before* the
``certified`` record is journaled, so a journal that says certified
always finds its sidecar; a sidecar without its journal record is a
pre-crash partial and is simply overwritten when the resubmitted window
re-certifies (deterministically, with identical bytes).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import Any, Callable, Collection, Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import ArrayDataset, sample_indices
from ..nn.module import Module
from ..nn.serialization import save_state_dict
from ..runtime import BackendLike, get_backend
from .deletion_manager import (
    DeletionManager,
    DeletionPolicy,
    DeletionRequest,
    ExecutedBatch,
    RequestState,
    check_round,
)
from .journal import Journal, fsync_path, replay
from .sisa import SisaEnsemble


class SlaMeter:
    """Per-request time-to-forget accounting (percentiles in rounds).

    Reads the requests it is handed on every call — a list, or the live
    ``requests.values()`` view the service passes — so a request's own
    ``certified_round`` and wall stamps are the only record of its
    latency.
    """

    def __init__(self, requests: Collection[DeletionRequest]) -> None:
        self.requests = requests

    def _rounds(self) -> List[int]:
        """Every certified request's time-to-forget in rounds."""
        values = (request.time_to_forget_rounds for request in self.requests)
        return [value for value in values if value is not None]

    @property
    def num_certified(self) -> int:
        return len(self._rounds())

    def percentile_rounds(self, q: float) -> float:
        rounds = self._rounds()
        if not rounds:
            raise ValueError("no certified requests metered yet")
        return float(np.percentile(rounds, q))


class UnlearningService:
    """The durable, non-blocking deletion service over one :class:`SisaEnsemble`.

    Construction on a live (fitted, or about-to-be-fitted) ensemble
    starts a **fresh** service in ``directory``: the ensemble's base
    state is saved and an empty journal begins.  After a crash, rebuild
    with :meth:`recover` instead — it replays the journal, reads each
    (shard, slice) from the newest certified sidecar that holds it (or
    the base save) and resubmits incomplete windows.

    Drive it once per federation round::

        service.submit(client_id, indices, round_index, request_id="r1")
        service.tick(round_index)     # poll finished + submit ready windows
        ...
        service.drain(final_round)    # barrier once, at the very end

    The queue, the flush policy and the per-window accounting live on
    :attr:`manager`; the window scheduler is this class.  Each fact has
    one record: a request is one
    :class:`~repro.unlearning.deletion_manager.DeletionRequest` (the
    object :meth:`submit` returns, the queue holds and its window
    flushes), and a window is one
    :class:`~repro.unlearning.deletion_manager.ExecutedBatch` (the
    object :meth:`maybe_submit` returns and ``manager.executed_batches``
    keeps).  When the policy
    fires, :meth:`maybe_submit` *submits* the window's retrain chains
    through the backend (one ticket per window) and returns immediately;
    subsequent federation rounds train while the chains retrain, and
    :meth:`poll` certifies a window once its ticket completes
    (``ExecutedBatch.overlap_rounds`` = completion round − submission
    round).  A backend without ``submit``/``drain``/``poll`` (serial)
    cannot overlap: the chains then run to completion inside
    :meth:`maybe_submit`, so the loop above is portable across backends.

    Determinism: :meth:`~repro.unlearning.sisa.SisaEnsemble.delete_begin`
    snapshots everything a chain reads (checkpoint, index sets) at
    submission time, and each slice trains from the stream keyed by
    (seed, shard, slice), so the retrained shard states are
    bit-identical to the barriered
    :meth:`~repro.unlearning.deletion_manager.DeletionManager.maybe_execute_batched`
    path no matter how many rounds pass before the results land.
    Windows are locked **per shard**: a policy that fires while chains
    are outstanding submits the requests whose shards are free and
    defers the rest, so disjoint-shard windows retrain concurrently
    (``windows_in_flight`` ≥ 2) while same-shard requests keep queueing
    until their shard unlocks.

    ``task_filter`` is the fault-injection seam: it sees
    ``(window_id, tasks)`` before each ticketed submission and may wrap
    tasks (e.g. :class:`~repro.unlearning.faultinject.FaultInjector`
    worker kills).
    """

    def __init__(
        self,
        ensemble: SisaEnsemble,
        directory: str,
        policy: Optional[DeletionPolicy] = None,
        backend: BackendLike = None,
        task_filter: Optional[Callable] = None,
        seed: int = 0,
        _recovered_records: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        self.ensemble = ensemble
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        journal_path = os.path.join(directory, "journal.jsonl")
        if _recovered_records is None and os.path.exists(journal_path):
            raise RuntimeError(
                f"{journal_path} already exists — this directory holds a "
                "previous service's durable state; resume it with "
                "UnlearningService.recover() instead of starting fresh"
            )
        self.journal = Journal(journal_path)
        self.requests: Dict[str, DeletionRequest] = {}
        self.duplicates = 0
        self.sla = SlaMeter(self.requests.values())
        self._windows: Dict[int, ExecutedBatch] = {}
        # Window ids in certification order, preserved across compaction
        # snapshots.
        self._certified_order: List[int] = []
        self._auto_id = 0
        self._next_window = 0
        self.manager = DeletionManager(policy)
        self.backend = ensemble.backend if backend is None else get_backend(backend)
        self.task_filter = task_filter
        # window_id -> (pending, ticket); insertion order is submission
        # order, which poll/drain preserve when completing.
        self._inflight: Dict[int, tuple] = {}
        # Requests the policy has already admitted but a shard lock
        # deferred.  Once admitted, a request flushes as soon as its
        # shards free up without waiting for the policy to fire again: a
        # BatchSizePolicy counts a request toward exactly one firing.
        self._armed: set = set()
        #: High-water mark of concurrently retraining windows (>= 2 means
        #: disjoint-shard windows demonstrably overlapped).
        self.max_windows_in_flight = 0
        if not ensemble._fitted:
            ensemble.fit()
        base = os.path.join(directory, "ensemble")
        if not os.path.exists(os.path.join(base, "manifest.json")):
            ensemble.save(base)
        meta_path = os.path.join(directory, "service.json")
        if not os.path.exists(meta_path):
            with open(meta_path, "w") as handle:
                json.dump({"version": 1, "seed": seed}, handle)
        if _recovered_records is not None:
            self._rebuild_from_records(_recovered_records)

    # ------------------------------------------------------------------
    # The state machine: journal first, then the same record in memory
    # ------------------------------------------------------------------
    def _log(self, event: str, **fields: Any) -> None:
        """One transition, write-ahead (see :meth:`_commit`)."""
        self._commit({"event": event, **fields})

    def _commit(self, *records: Dict[str, Any]) -> None:
        """Transitions, write-ahead: durably journal the records as one
        group (one fsync), then apply each — through the code that
        replays it after a crash."""
        for record in self.journal.append(list(records)):
            self._apply(record)

    def _apply(self, record: Dict[str, Any]) -> None:
        """What a journal record means for in-memory state.  Live
        transitions (:meth:`_log`) and recovery replay both come through
        here, so a recovered service cannot disagree with the one that
        wrote the journal.  ``resubmitted`` is evidence only."""
        event = record.get("event")
        if event == "snapshot":
            self._restore_snapshot(record)
        elif event == "received":
            request_id = record["request_id"]
            self.requests[request_id] = DeletionRequest(
                client_id=int(record.get("client_id", -1)),
                indices=record["indices"],
                submitted_round=int(record["round"]),
                request_id=request_id,
            )
        elif event == "validated":
            self.requests[record["request_id"]].state = RequestState.VALIDATED
        elif event == "failed":
            request = self.requests[record["request_id"]]
            request.state = RequestState.FAILED
            request.failure_reason = record.get("reason")
        elif event == "duplicate":
            self.duplicates += 1
        elif event == "scheduled":
            window_id = int(record["window"])
            batch = self._windows[window_id] = ExecutedBatch(
                executed_round=int(record["round"]),
                requests=[self.requests[rid] for rid in record["requests"]],
                window_id=window_id,
                indices=[int(i) for i in record["indices"]],
                shards=[int(s) for s in record.get("shards", [])],
            )
            self._next_window = max(self._next_window, window_id + 1)
            for request in batch.requests:
                request.state = RequestState.SCHEDULED
                request.window_id = window_id
        elif event == "retraining":
            batch = self._windows[int(record["window"])]
            batch.first_slices = {
                int(shard): int(start) for shard, start in record["slices"].items()
            }
            for request in batch.requests:
                request.state = RequestState.RETRAINING
        elif event == "certified":
            batch = self._windows[int(record["window"])]
            batch.completed_round = int(record["round"])
            self._certified_order.append(batch.window_id)
            self._certify_requests(batch.requests, batch.completed_round)
        elif event == "window_failed":
            batch = self._windows[int(record["window"])]
            batch.failed = True
            for request in batch.requests:
                request.state = RequestState.FAILED
                request.failure_reason = "retrain chains failed"
        elif event == "noop":
            self._certify_requests(
                [self.requests[rid] for rid in record["requests"]],
                int(record["round"]),
            )

    @staticmethod
    def _certify_requests(
        requests: List[DeletionRequest], round_index: int
    ) -> None:
        now = time.perf_counter()
        for request in requests:
            request.state = RequestState.CERTIFIED
            request.certified_round = round_index
            if request.submitted_wall is not None:
                request.certified_wall = now

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(
        self,
        client_id: int,
        indices: Sequence[int],
        round_index: int,
        request_id: Optional[str] = None,
    ) -> DeletionRequest:
        """File one deletion request; returns its record — the object
        :attr:`requests` and the manager's queue hold.

        Idempotent on ``request_id``: resubmitting an id the service has
        already accepted (in *any* state, across restarts) returns the
        original record without queueing new work.  Without one, a fresh
        ``req-N`` id is generated.  A negative or non-integer round and
        indices that are not whole numbers raise :class:`ValueError`
        before anything is journaled, so no record replay would reject
        reaches the journal.  Empty index sets and out-of-range indices
        are rejected with a clear :class:`ValueError` after journaling
        the terminal ``failed`` transition, so a bad request cannot
        poison the windows of well-formed ones.  The ``received`` record
        and its verdict are one journal group: the call returns once
        both are durable, after one fsync.
        """
        round_index = check_round(round_index)
        indices = sample_indices(indices)
        if request_id is None:
            request_id = self._fresh_id()
        elif request_id in self.requests:
            self._log("duplicate", request_id=request_id, round=round_index)
            return self.requests[request_id]
        arrived = time.perf_counter()
        verdict = self._verdict(request_id, round_index, indices)
        self._commit(
            {
                "event": "received",
                "request_id": request_id,
                "client_id": int(client_id),
                "indices": [int(i) for i in indices],
                "round": round_index,
            },
            verdict,
        )
        request = self.requests[request_id]
        request.submitted_wall = arrived
        if verdict["event"] == "failed":
            raise ValueError(f"deletion request {request_id!r}: {verdict['reason']}")
        return self.manager.enqueue(request)

    def _fresh_id(self) -> str:
        """A generated ``req-N`` id no request holds yet — whether a
        caller picked that id itself or a previous process generated it."""
        while True:
            request_id = f"req-{self._auto_id:06d}"
            self._auto_id += 1
            if request_id not in self.requests:
                return request_id

    def _validate(self, request: DeletionRequest) -> None:
        """Journal the verdict of a request recovery found ``received``."""
        verdict = self._verdict(request.request_id, request.submitted_round, request.indices)
        self._commit(verdict)

    def _verdict(
        self, request_id: str, round_index: int, indices: np.ndarray
    ) -> Dict[str, Any]:
        """A received request's ``validated`` record, or its terminal
        ``failed`` one with the reason."""
        bad = indices[(indices < 0) | (indices >= len(self.ensemble.dataset))]
        record: Dict[str, Any] = {"request_id": request_id, "round": round_index}
        if indices.size == 0:
            record["reason"] = "deletion request with no indices"
        elif bad.size:
            record["reason"] = f"index {int(bad[0])} out of range"
        record["event"] = "failed" if "reason" in record else "validated"
        return record

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def tick(self, round_index: int) -> Dict[str, Any]:
        """One scheduling beat: absorb finished windows, submit ready ones."""
        completed = self.poll(round_index)
        submitted = self.maybe_submit(round_index)
        return {"completed": completed, "submitted": submitted}

    def maybe_submit(self, round_index: int) -> Optional[ExecutedBatch]:
        """Submit a flush window when the policy fires; never blocks on a
        streaming backend.

        Flushes only the pending requests whose shards are not locked by
        an in-flight window; the rest stay queued but are *armed* — the
        policy already admitted them, so they flush on a later call as
        soon as their shards free, without needing the policy to fire
        again.  Returns the (possibly still in-flight) batch record, or
        ``None`` when the policy did not fire (and nothing armed is
        runnable) or every candidate is blocked behind a busy shard.
        """
        pending = self.manager.pending
        if not pending:
            return None
        if self.manager.window_ready(round_index):
            self._armed.update(pending)
        locked = self.ensemble.pending_shards
        already = self.ensemble.deleted_indices
        shard_of = self.ensemble.shard_of
        ready = [
            request
            for request in pending
            if request in self._armed
            and not any(
                shard_of(index)[0] in locked
                for index in request.indices.tolist()
                if index not in already
            )
        ]
        if not ready:
            return None
        self._armed.difference_update(ready)
        request_ids = [request.request_id for request in ready]
        merged = self.manager.merged_global_indices(ready, already).tolist()
        if not merged:
            # Every index was already logically deleted by an earlier
            # window — nothing retrains, the requests certify on the spot
            # (idempotent re-requests are normal in deletion systems).
            self._log("noop", requests=request_ids, round=round_index)
            return self.manager.flush(
                ExecutedBatch(round_index, ready, completed_round=round_index)
            )
        # Write-ahead: delete_begin only marks memory (deleted indices,
        # shard locks, each shard's first affected slice); no chain runs
        # until the plan and its start slices are durable, in one group.
        window_id = self._next_window
        pending = self.ensemble.delete_begin(merged)
        self._commit(
            {
                "event": "scheduled",
                "window": window_id,
                "requests": request_ids,
                "indices": merged,
                "shards": sorted(pending.first_affected),
                "round": round_index,
            },
            self._retraining(window_id, pending, round_index),
        )
        return self._launch(self._windows[window_id], pending, round_index)

    @staticmethod
    def _retraining(window_id: int, pending, round_index: int) -> Dict[str, Any]:
        """A begun window's ``retraining`` record: each shard's first
        retrained slice, after ``delete_begin``'s walk-back."""
        return {
            "event": "retraining",
            "window": window_id,
            "round": round_index,
            "slices": {
                str(shard): int(start)
                for shard, start in sorted(pending.first_affected.items())
            },
        }

    def _launch(self, batch: ExecutedBatch, pending, round_index: int) -> ExecutedBatch:
        """Start a begun window's chains, its ``retraining`` record
        already durable.  Recovery re-begins a window a dead process
        left incomplete through here too — its journaled plan is
        re-begun as-is, past the policy gate, and the window reads the
        round it was re-begun in."""
        batch.executed_round = round_index
        batch.chains_submitted = pending.num_chains
        self.manager.flush(batch)
        if all(hasattr(self.backend, name) for name in ("submit", "drain", "poll")):
            tasks = list(pending.tasks)
            if self.task_filter is not None:
                tasks = self.task_filter(batch.window_id, tasks)
            ticket = self.backend.submit(tasks)
            self._inflight[batch.window_id] = (pending, ticket)
            self.max_windows_in_flight = max(
                self.max_windows_in_flight, len(self._inflight)
            )
            return batch
        # No submit/drain/poll seam: run to completion inside the call.
        return self._finish(
            batch, pending, round_index, lambda: self.backend.run_tasks(pending.tasks)
        )

    def _finish(
        self, batch: ExecutedBatch, pending, round_index: int, collect
    ) -> ExecutedBatch:
        """Collect one window's chain results and certify it.

        A chain failure (``BackendError`` after the worker-death retry
        budget, say) unlocks the window's shards
        (:meth:`~repro.unlearning.sisa.SisaEnsemble.abort_pending_deletion`)
        instead of wedging every future window, then propagates."""
        try:
            results = collect()
        except Exception:
            self.ensemble.abort_pending_deletion(pending)
            self._log("window_failed", window=batch.window_id, round=round_index)
            raise
        batch.outcome = self.ensemble.delete_finish(pending, results)
        # Sidecar first, then the journal record: a journal that says
        # certified must always find its sidecar on disk.
        self._persist_window(batch.window_id, pending)
        self._log("certified", window=batch.window_id, round=round_index)
        return batch

    def _land(self, window_id: int, round_index: int) -> ExecutedBatch:
        """Finish one in-flight window (blocks until its ticket drains)."""
        pending, ticket = self._inflight.pop(window_id)
        return self._finish(
            self._windows[window_id],
            pending,
            round_index,
            lambda: self.backend.drain(ticket),
        )

    def poll(self, round_index: int) -> List[ExecutedBatch]:
        """Certify every in-flight window whose chains have finished.

        Call once per round *before* submitting new work.  Returns the
        batches completed this call (empty list when nothing finished).
        """
        return [
            self._land(window_id, round_index)
            for window_id, (_, ticket) in list(self._inflight.items())
            if self.backend.poll(ticket)
        ]

    def drain(self, round_index: int) -> List[ExecutedBatch]:
        """Barrier: block until every in-flight window certifies
        (submission order)."""
        return [
            self._land(window_id, round_index) for window_id in list(self._inflight)
        ]

    def compact(self) -> Dict[str, Any]:
        """Collapse the journal into one snapshot record.

        The snapshot captures every live fact replay would otherwise
        reconstruct from the full history — request records and states,
        window plans (indices, shards, certified/failed flags), the
        certification order, duplicate and id counters — so replay after
        compaction reads one entry per request and window instead of one
        record per transition.  The plans' start slices are what
        :meth:`recover` picks each (shard, slice)'s newest sidecar from,
        so its reads stay one per (shard, slice) however long the history.
        The write is atomic (:meth:`~repro.unlearning.journal.Journal.compact`):
        a crash at any instant mid-compaction leaves either the full
        history or the complete snapshot, and recovery from both is
        bit-identical.

        Refused while windows are in flight: their ``retraining``
        records are the only durable evidence of submitted work, and a
        snapshot taken mid-flight would race their certification.
        """
        if self._inflight:
            raise RuntimeError(
                f"cannot compact with {len(self._inflight)} "
                "window(s) in flight — drain() first"
            )
        snapshot = {
            "event": "snapshot",
            "requests": [
                {
                    "request_id": request.request_id,
                    "client_id": int(request.client_id),
                    "indices": [int(i) for i in request.indices],
                    "submitted_round": int(request.submitted_round),
                    "state": request.state,
                    "window": request.window_id,
                    "certified_round": request.certified_round,
                    "reason": request.failure_reason,
                }
                for request in self.requests.values()
            ],
            "windows": {
                str(window_id): self._window_plan(batch)
                for window_id, batch in self._windows.items()
            },
            "certified_order": list(self._certified_order),
            "duplicates": int(self.duplicates),
            "auto_id": int(self._auto_id),
            "next_window": int(self._next_window),
        }
        return self.journal.compact(snapshot)

    @staticmethod
    def _window_plan(batch: ExecutedBatch) -> Dict[str, Any]:
        """A window's snapshot entry: its ``scheduled`` plan and start
        slices, plus the flag its ``certified`` / ``window_failed`` set."""
        plan: Dict[str, Any] = {
            "request_ids": [request.request_id for request in batch.requests],
            "indices": list(batch.indices),
            "shards": list(batch.shards),
            "slices": {str(k): v for k, v in batch.first_slices.items()},
        }
        if batch.failed:
            plan["failed"] = True
        elif not batch.in_flight:
            plan["certified"] = True
        return plan

    @property
    def windows_in_flight(self) -> int:
        return len(self._inflight)

    def states(self) -> Dict[str, str]:
        """``request_id → state`` snapshot (for assertions and dashboards)."""
        return {rid: req.state for rid, req in self.requests.items()}

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "UnlearningService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _window_dir(self, window_id: int) -> str:
        return os.path.join(self.directory, "windows", f"{window_id:06d}")

    def _persist_window(self, window_id: int, pending) -> None:
        """Durably write the certified window's sidecar.

        The sidecar holds checkpoints only: for each affected shard, the
        ones its chain rewrote (its first affected slice onwards).
        Earlier slices are byte-identical to the copy recovery already
        reads elsewhere, and the window's indices and first slices are
        in its journaled plan.  Per-shard locking guarantees no other
        window mutated these shards between begin and certify, so the
        live state *is* the post-window state.  Every checkpoint and the
        temp directory are fsynced before the rename, and ``windows/``
        after it, so the ``certified`` record that follows always finds
        the sidecar on disk.
        """
        final = self._window_dir(window_id)
        tmp = final + ".tmp"
        for stale in (tmp, final):
            if os.path.exists(stale):
                shutil.rmtree(stale)
        windows = os.path.dirname(final)
        if not os.path.isdir(windows):
            os.makedirs(windows)
            fsync_path(self.directory)
        os.makedirs(tmp)
        for shard_index, start in sorted(pending.first_affected.items()):
            shard = self.ensemble._shards[shard_index]
            for slice_index in range(start, self.ensemble.config.num_slices):
                path = os.path.join(tmp, f"shard{shard_index}_slice{slice_index}.ckpt")
                save_state_dict(shard.checkpoints[slice_index], path)
                fsync_path(path)
        fsync_path(tmp)
        os.rename(tmp, final)
        fsync_path(windows)

    def _read_shards(self, base: str, manifest: Dict[str, Any]) -> None:
        """Read every (shard, slice) checkpoint once, from its newest
        durable copy.

        A certified window's sidecar holds the slices it rewrote — each
        shard's journaled first slice onwards.  A failed window dropped
        those slices from the live
        shard and left its model stale
        (:meth:`~repro.unlearning.sisa.SisaEnsemble.abort_pending_deletion`).
        A shard is locked from a window's begin to its finish, so per
        shard, windows finish in window-id order; walking the finished
        windows in that order names each slice's source: the newest
        certified window that rewrote it, the base save (``base``,
        described by ``manifest``), or none.  The deleted set is the
        base save's plus the finished windows' plans.
        """
        ensemble = self.ensemble
        num_slices = ensemble.config.num_slices
        sources = [
            {slice_index: base for slice_index in entry["checkpoints"]}
            for entry in manifest["shards"]
        ]
        newest: Dict[int, int] = {}
        for window_id, batch in sorted(self._windows.items()):
            if batch.in_flight and not batch.failed:
                continue
            ensemble._deleted.update(batch.indices)
            source = None if batch.failed else self._window_dir(window_id)
            for shard_index, start in batch.first_slices.items():
                for slice_index in range(start, num_slices):
                    sources[shard_index][slice_index] = source
                if source is not None:
                    newest[shard_index] = window_id
        for shard in ensemble._shards:
            window_id = newest.get(shard.index)
            ensemble._read_shard(
                shard,
                {r: source for r, source in sources[shard.index].items() if source},
                model_source=base if window_id is None else self._window_dir(window_id),
            )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: str,
        model_factory: Callable[[], Module],
        dataset: ArrayDataset,
        policy: Optional[DeletionPolicy] = None,
        backend: BackendLike = None,
        task_filter: Optional[Callable] = None,
        round_index: int = 0,
    ) -> "UnlearningService":
        """Resume a service whose process died, from its directory alone.

        Replays the journal once to restore every request's state and
        every window's plan, then reads each (shard, slice) checkpoint
        exactly once: from the sidecar of the newest certified window
        that rewrote it, or from the base save if none did
        (:meth:`_read_shards`).  The deleted set comes from the base save
        and the finished plans.  So the cost is the replay plus
        ``num_shards x num_slices`` checkpoint reads, however many windows
        have certified.  It then
        resubmits windows that were scheduled/retraining but never
        certified (``round_index`` stamps the resubmission round) and
        re-queues validated-but-unscheduled requests.  Because windows
        only ever lock disjoint shards, the resubmitted chains see
        exactly the checkpoints their original submission saw, and each
        slice trains from its keyed stream — the recovered run's certified states
        are bit-identical to an uninterrupted run's.  A directory whose
        windows all certified recovers without writing anything.
        """
        base = os.path.join(directory, "ensemble")
        ensemble, manifest = SisaEnsemble._skeleton(
            base, model_factory, dataset, backend=backend
        )
        service = cls(
            ensemble,
            directory,
            policy=policy,
            backend=backend,
            task_filter=task_filter,
            seed=ensemble.seed,
            _recovered_records=replay(os.path.join(directory, "journal.jsonl")),
        )
        service._read_shards(base, manifest)
        service._resubmit_incomplete(round_index)
        return service

    def _rebuild_from_records(self, records: List[Dict[str, Any]]) -> None:
        """Restore request and window state from replayed journal
        records: requests, window plans and the certification order.
        It reads no shard; :meth:`recover` reads each (shard, slice) once
        afterwards, choosing its source from the plans restored here."""
        for record in records:
            self._apply(record)
        # A crash inside the `received` + verdict group leaves a request
        # in RECEIVED: validation is deterministic, re-run it.
        for request in self.requests.values():
            if request.state == RequestState.RECEIVED:
                self._validate(request)
        # Re-queue every validated-but-unscheduled request.
        for request in self.requests.values():
            if request.state == RequestState.VALIDATED:
                self.manager.enqueue(request)

    def _restore_snapshot(self, record: Dict[str, Any]) -> None:
        """Reload live state from a compaction snapshot; records after
        it in the journal replay on top as usual."""
        self.duplicates = int(record.get("duplicates", 0))
        self._auto_id = int(record.get("auto_id", 0))
        self._next_window = int(record.get("next_window", 0))
        self._certified_order = [int(w) for w in record.get("certified_order", [])]
        for item in record.get("requests", []):
            self.requests[item["request_id"]] = DeletionRequest(
                client_id=int(item["client_id"]),
                indices=item["indices"],
                submitted_round=int(item["submitted_round"]),
                request_id=item["request_id"],
                state=item["state"],
                window_id=item.get("window"),
                certified_round=item.get("certified_round"),
                failure_reason=item.get("reason"),
            )
        self._windows = {}
        for key, plan in record.get("windows", {}).items():
            requests = [self.requests[rid] for rid in plan["request_ids"]]
            # A snapshot keeps a window's plan, not its rounds: its last
            # request's arrival and its requests' certification round
            # (None unless certified) stand in for them.
            self._windows[int(key)] = ExecutedBatch(
                executed_round=max(request.submitted_round for request in requests),
                requests=requests,
                completed_round=requests[0].certified_round,
                window_id=int(key),
                indices=plan["indices"],
                shards=plan.get("shards", []),
                first_slices={int(k): v for k, v in plan["slices"].items()},
                failed=bool(plan.get("failed")),
            )

    def _resubmit_incomplete(self, round_index: int) -> None:
        """Re-begin every scheduled/retraining window from its journaled
        index set (the write-ahead plan *is* the recovery unit).  On a
        serial backend the window certifies before this returns."""
        for window_id, batch in sorted(self._windows.items()):
            if batch.failed or not batch.in_flight:
                continue
            pending = self.ensemble.delete_begin(batch.indices)
            self._commit(
                {"event": "resubmitted", "window": window_id, "round": round_index},
                self._retraining(window_id, pending, round_index),
            )
            self._launch(batch, pending, round_index)
