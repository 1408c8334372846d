"""Deletion-request queue management.

The paper motivates its optimization module with "the sporadic nature of
data removal requests": requests arrive unpredictably, and each unlearning
run costs rounds of federation work, so *when* to run unlearning is a
policy decision. GDPR-style regulation bounds the latency ("within a
reasonable time frame"); the operator pays per execution. This module
makes the trade-off explicit:

* :class:`DeletionManager` — accepts requests as they arrive and
  executes a batch when its :class:`DeletionPolicy` fires;
* policies: :class:`ImmediatePolicy` (lowest latency, most executions),
  :class:`BatchSizePolicy` (wait for k pending requests),
  :class:`PeriodicPolicy` (fixed cadence — bounded worst-case latency);
* every executed batch records per-request latency in rounds, so the
  latency/cost frontier of a policy is measurable.

Two execution paths share the queue and the policies:

* :meth:`DeletionManager.maybe_execute_batched` — the barriered
  SISA/sharded flow, routed through the execution runtime, and the
  reference the service is tested bit-identical against: *all* pending
  requests coalesce into one ``delete()`` call on the ensemble, which
  submits **one retrain chain per affected shard per flush window**
  through its :class:`~repro.runtime.Backend`.  A shard hit by five
  requests replays its checkpoint prefix once, not five times — the
  amortisation the paper's retraining-cost accounting
  (``SisaDeletionReport``) measures — and
  :attr:`ExecutedBatch.chains_submitted` records how few chains the
  window actually cost;
* :class:`~repro.unlearning.service.UnlearningService` — the durable,
  **non-blocking** variant of the batched flow: it owns one of these
  managers (queue, policy gate, batch accounting), deduplicates request
  ids against its journal, submits each window's chains through the
  pool's ``submit``/``drain`` seam so they retrain *concurrently with*
  subsequent synchronous federation rounds, and journals every transition;
  :attr:`ExecutedBatch.overlap_rounds` records how many rounds each
  window overlapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import sample_indices


class RequestState:
    """The deletion request lifecycle (terminal: certified / failed)."""

    RECEIVED = "received"
    VALIDATED = "validated"
    SCHEDULED = "scheduled"
    RETRAINING = "retraining"
    CERTIFIED = "certified"
    FAILED = "failed"


def check_round(round_index) -> int:
    """``round_index`` as a non-negative ``int``, or :class:`ValueError`."""
    if isinstance(round_index, bool) or not isinstance(round_index, (int, np.integer)):
        raise ValueError(f"round must be an integer, got {round_index!r}")
    if round_index < 0:
        raise ValueError(f"submitted_round must be non-negative, got {round_index}")
    return int(round_index)


@dataclass(eq=False)
class DeletionRequest:
    """One client's request to remove some of its local samples.

    ``request_id`` makes resubmission idempotent: deletion clients retry
    on timeouts, and a retried request must not retrain twice.
    :meth:`~repro.unlearning.service.UnlearningService.submit` returns
    the original request for an id its journal has already accepted.

    The remaining fields are the request's position in the
    :class:`~repro.unlearning.service.UnlearningService` lifecycle.  A
    request compares by identity, so the queue, the window that flushes
    it and ``service.requests`` all hold this one object.
    """

    client_id: int
    indices: np.ndarray
    submitted_round: int
    request_id: Optional[str] = None
    state: str = RequestState.RECEIVED
    window_id: Optional[int] = None
    certified_round: Optional[int] = None
    failure_reason: Optional[str] = None
    # Wall-clock stamps are None for requests rebuilt by recovery (their
    # original process's clock is gone); round latencies survive restarts.
    submitted_wall: Optional[float] = None
    certified_wall: Optional[float] = None

    def __post_init__(self) -> None:
        self.indices = sample_indices(self.indices)
        self.submitted_round = check_round(self.submitted_round)

    @property
    def time_to_forget_rounds(self) -> Optional[int]:
        if self.certified_round is None:
            return None
        return self.certified_round - self.submitted_round

    @property
    def time_to_forget_seconds(self) -> Optional[float]:
        if self.certified_wall is None or self.submitted_wall is None:
            return None
        return self.certified_wall - self.submitted_wall


class DeletionPolicy:
    """Interface: decide whether the pending queue should execute now."""

    def should_execute(
        self, pending: Sequence[DeletionRequest], round_index: int
    ) -> bool:
        raise NotImplementedError


class ImmediatePolicy(DeletionPolicy):
    """Execute as soon as anything is pending (per-request latency 0)."""

    def should_execute(self, pending, round_index) -> bool:
        return len(pending) > 0


class BatchSizePolicy(DeletionPolicy):
    """Execute once at least ``min_requests`` requests are pending."""

    def __init__(self, min_requests: int) -> None:
        if min_requests < 1:
            raise ValueError(f"min_requests must be >= 1, got {min_requests}")
        self.min_requests = min_requests

    def should_execute(self, pending, round_index) -> bool:
        return len(pending) >= self.min_requests


class PeriodicPolicy(DeletionPolicy):
    """Execute on rounds divisible by ``every_rounds`` (if anything pends).

    Worst-case latency is bounded by ``every_rounds − 1`` rounds — the
    "reasonable time frame" knob.
    """

    def __init__(self, every_rounds: int) -> None:
        if every_rounds < 1:
            raise ValueError(f"every_rounds must be >= 1, got {every_rounds}")
        self.every_rounds = every_rounds

    def should_execute(self, pending, round_index) -> bool:
        return bool(pending) and round_index % self.every_rounds == 0


@dataclass
class ExecutedBatch:
    """Record of one unlearning execution — on the service, of one window."""

    executed_round: int
    requests: List[DeletionRequest]
    outcome: object = None  # the ensemble's deletion report, if any
    # Retrain chains submitted through the runtime for this batch (set by
    # the batched SISA path; one per affected shard).  Fewer chains than
    # requests is the whole point of batching.
    chains_submitted: int = 0
    # Round at which the window's retrain chains finished absorbing.  The
    # barriered path completes in the round it executes; the non-blocking
    # UnlearningService sets this later, once poll()/drain() lands the
    # results — until then it is None ("still retraining").
    completed_round: Optional[int] = None
    # The service's journaled plan: window id, merged index set and
    # affected shards (None / empty on the barriered path and for a
    # window that had nothing left to retrain), each shard's first
    # retrained slice (from its ``retraining`` record: the slices the
    # window rewrote, or dropped if its chains failed), and whether its
    # chains failed.
    window_id: Optional[int] = None
    indices: List[int] = field(default_factory=list)
    shards: List[int] = field(default_factory=list)
    first_slices: Dict[int, int] = field(default_factory=dict)
    failed: bool = False

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def latencies(self) -> List[int]:
        """Rounds each request waited before its window executed."""
        return [
            self.executed_round - request.submitted_round
            for request in self.requests
        ]

    @property
    def max_latency(self) -> int:
        return max(self.latencies)

    @property
    def in_flight(self) -> bool:
        """Whether the window's retrain chains are still executing."""
        return self.completed_round is None

    @property
    def overlap_rounds(self) -> int:
        """Federation rounds this window's retraining overlapped with.

        Zero on the barriered path (submit and completion share a
        round); positive under the
        :class:`~repro.unlearning.service.UnlearningService`, where the
        chains ran concurrently with that many subsequent rounds.
        """
        if self.completed_round is None:
            return 0
        return self.completed_round - self.executed_round


class DeletionManager:
    """Queue deletion requests and execute them per policy.

    Parameters
    ----------
    policy:
        When to run unlearning. Defaults to :class:`ImmediatePolicy`.

    Usage against a SISA ensemble::

        manager = DeletionManager(PeriodicPolicy(every_rounds=3))
        ...
        manager.submit(client_id=0, indices=[1, 2, 3], round_index=r)
        batch = manager.maybe_execute_batched(ensemble, r)
        # ensemble.delete() only runs when the policy fired; `batch` is
        # None otherwise.
    """

    def __init__(self, policy: Optional[DeletionPolicy] = None) -> None:
        self.policy = policy if policy is not None else ImmediatePolicy()
        self._pending: List[DeletionRequest] = []
        self._executed: List[ExecutedBatch] = []

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(
        self, client_id: int, indices: Sequence[int], round_index: int
    ) -> DeletionRequest:
        """File a request. Indices refer to the dataset as it is *now*
        (between executions the dataset does not change, so all requests
        in one batch share a consistent index space).  Empty index sets
        are rejected with a :class:`ValueError`.
        """
        request = DeletionRequest(
            client_id=client_id, indices=indices, submitted_round=round_index
        )
        if request.indices.size == 0:
            raise ValueError("deletion request with no indices")
        return self.enqueue(request)

    def enqueue(self, request: DeletionRequest) -> DeletionRequest:
        """Queue a request built elsewhere — the service's, which it has
        already journaled, validated and deduplicated."""
        self._pending.append(request)
        return request

    @property
    def pending(self) -> List[DeletionRequest]:
        return list(self._pending)

    @property
    def num_pending(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def merged_global_indices(
        self,
        requests: Optional[Sequence[DeletionRequest]] = None,
        already_deleted: Collection[int] = (),
    ) -> np.ndarray:
        """Every index of ``requests`` (default: the whole queue) folded
        into one deduplicated set, less ``already_deleted``.

        For request streams whose indices share one global index space
        (e.g. a :class:`~repro.unlearning.sisa.SisaEnsemble` over one
        dataset), the per-client split is irrelevant — the whole window
        unlearns as a single set.  Re-requests are tolerated: indices an
        earlier window already deleted are filtered out (idempotent
        re-submission is normal in deletion systems), so one duplicate
        cannot wedge the queue by making every subsequent flush raise.
        """
        requests = self._pending if requests is None else requests
        if not requests:
            return np.array([], dtype=np.int64)
        merged = np.unique(np.concatenate([request.indices for request in requests]))
        if len(already_deleted):
            merged = merged[~np.isin(merged, list(already_deleted))]
        return merged

    def maybe_execute_batched(
        self, ensemble, round_index: int
    ) -> Optional[ExecutedBatch]:
        """Flush the window into one coalesced ``ensemble.delete()`` call.

        The runtime-routed deletion path: when the policy fires, every
        pending request's indices are folded into a single set and the
        ensemble — a :class:`~repro.unlearning.sisa.SisaEnsemble`, or any
        object matching its deletion interface (single-argument
        ``delete(indices) -> report`` whose report carries
        ``shards_affected``, plus optionally ``deleted_indices`` for
        idempotent re-requests) — unlearns them in **one** call, which
        submits one retrain chain per *affected shard* through the
        ensemble's execution backend, however many requests hit that
        shard.  Checkpoint replay is thus paid once per shard per flush
        window instead of once per request, and under a parallel backend
        the affected shards retrain concurrently.

        Re-requests are tolerated (see :meth:`merged_global_indices`).
        A window left empty by the filter executes nothing (zero chains)
        but still clears the queue and records the batch.

        Returns the batch record (with per-request latencies and the
        number of chains actually submitted), or ``None`` when the
        policy did not fire.
        """
        if not self.window_ready(round_index):
            return None
        merged = self.merged_global_indices(
            self._pending, getattr(ensemble, "deleted_indices", None) or ()
        )
        report = ensemble.delete(merged) if merged.size else None
        return self.flush(
            ExecutedBatch(
                round_index,
                list(self._pending),
                outcome=report,
                chains_submitted=len(getattr(report, "shards_affected", []) or []),
                completed_round=round_index,
            )
        )

    # Shared flush skeleton — both execution paths (the one above and the
    # UnlearningService) gate, validate, record and clear identically so
    # their semantics cannot diverge.

    def window_ready(self, round_index: int) -> bool:
        """Policy gate + sanity check that no pending request postdates
        the execution round."""
        if not self.policy.should_execute(self._pending, round_index):
            return False
        for request in self._pending:
            if request.submitted_round > round_index:
                raise ValueError(
                    f"request submitted at round {request.submitted_round} "
                    f"cannot execute at earlier round {round_index}"
                )
        return True

    def flush(self, batch: ExecutedBatch) -> ExecutedBatch:
        """Record ``batch`` as one executed window and take its requests
        off the queue.

        The barriered path flushes the whole queue; the per-shard-locking
        :class:`~repro.unlearning.service.UnlearningService` flushes only
        the requests whose shards are free, leaving the rest queued for
        a later window, with ``completed_round`` still ``None`` — the
        window is retraining until its chains land."""
        self._executed.append(batch)
        self._pending = [
            request for request in self._pending if request not in batch.requests
        ]
        return batch

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def executed_batches(self) -> List[ExecutedBatch]:
        return list(self._executed)

    @property
    def total_overlap_rounds(self) -> int:
        """Federation rounds retraining overlapped with, summed over all
        completed windows (non-zero only under the non-blocking
        :class:`~repro.unlearning.service.UnlearningService`)."""
        return sum(batch.overlap_rounds for batch in self._executed)

    @property
    def num_executions(self) -> int:
        return len(self._executed)

    @property
    def total_chains_submitted(self) -> int:
        """Retrain chains submitted across all batched executions — the
        runtime cost the flush policy is amortising (compare against
        ``sum(batch.num_requests)`` to see the saving)."""
        return sum(batch.chains_submitted for batch in self._executed)

    def mean_latency(self) -> float:
        """Average rounds-waited over all executed requests."""
        latencies = [
            latency
            for batch in self._executed
            for latency in batch.latencies
        ]
        if not latencies:
            raise ValueError("no executed requests yet")
        return float(np.mean(latencies))
