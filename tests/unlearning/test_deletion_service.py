"""The non-blocking deletion service: overlap without divergence.

The service's contract: final ensemble states are bit-identical to the
barriered ``maybe_execute_batched`` path (delete_begin snapshots
everything a chain reads at submission time), windows overlap subsequent
rounds under a submit/drain backend (``overlap_rounds`` > 0), and the
manager's policy/queue semantics are unchanged.  (Durability — journal,
sidecars, recovery — is ``test_service.py``'s subject.)
"""

import tempfile

import numpy as np
import pytest

from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend
from repro.unlearning import (
    BatchSizePolicy,
    DeletionManager,
    PeriodicPolicy,
    SisaConfig,
    SisaEnsemble,
    UnlearningService,
)

from ..conftest import make_blobs

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
SISA = SisaConfig(num_shards=3, num_slices=2, epochs_per_slice=1, batch_size=8)
DATASET = make_blobs(num_samples=72, num_classes=3, shape=(1, 4, 4), seed=0)

# round -> indices filed that round (two flush windows under the policy).
REQUEST_SCHEDULE = {1: [3, 40], 3: [41, 70]}


def fresh_ensemble(backend=None):
    return SisaEnsemble(FACTORY, DATASET, SISA, seed=5, backend=backend).fit()


def shard_states(ensemble):
    return [
        {key: value.copy() for key, value in shard.model.state_dict().items()}
        for shard in ensemble._shards
    ]


# One scratch root for every service directory, removed at interpreter exit.
SCRATCH = tempfile.TemporaryDirectory()


def make_service(ensemble, policy):
    return UnlearningService(
        ensemble, tempfile.mkdtemp(dir=SCRATCH.name), policy=policy
    )


def run_barriered(num_rounds=6):
    ensemble = fresh_ensemble()
    manager = DeletionManager(BatchSizePolicy(2))
    for round_index in range(num_rounds):
        for index in REQUEST_SCHEDULE.get(round_index, []):
            manager.submit(client_id=0, indices=[index], round_index=round_index)
        manager.maybe_execute_batched(ensemble, round_index)
    return manager, ensemble


def run_service(backend=None, num_rounds=6):
    """The service loop, with deferred windows flushed after the run.

    How many rounds a window overlaps depends on real chain wall-clock,
    so a window whose chains outlast the loop may defer the next policy
    firing past ``num_rounds``; the tail loop flushes those.  The final
    ensemble states are timing-independent either way — chains snapshot
    everything they read at delete_begin time.
    """
    ensemble = fresh_ensemble(backend=backend)
    service = make_service(ensemble, BatchSizePolicy(2))
    manager = service.manager
    for round_index in range(num_rounds):
        service.poll(round_index)
        for index in REQUEST_SCHEDULE.get(round_index, []):
            service.submit(client_id=0, indices=[index], round_index=round_index)
        service.maybe_submit(round_index)
    service.drain(num_rounds)
    # Requests the policy armed but a shard lock deferred flush here, now
    # that every window has drained and all shards are free.  Each pass
    # makes progress (armed + unlocked => flush), so this terminates.
    for _ in range(num_rounds):
        if not manager.num_pending:
            break
        service.maybe_submit(num_rounds)
        service.drain(num_rounds)
    assert not manager.num_pending
    service.close()
    return manager, ensemble


def assert_states_equal(a, b):
    for state_a, state_b in zip(a, b):
        assert state_a.keys() == state_b.keys()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])


class TestParity:
    def test_serial_fallback_matches_barriered_path(self):
        _, barriered = run_barriered()
        _, serviced = run_service()
        assert_states_equal(shard_states(barriered), shard_states(serviced))

    def test_pool_overlap_matches_barriered_path(self):
        _, barriered = run_barriered()
        pool = PoolBackend(max_workers=2)
        try:
            manager, serviced = run_service(backend=pool)
        finally:
            pool.close()
        assert_states_equal(shard_states(barriered), shard_states(serviced))
        # Windows submitted through the pool completed in a *later* round
        # than they were submitted (they overlapped the loop).
        assert manager.total_overlap_rounds > 0

    def test_same_windows_and_chains_as_barriered(self):
        barriered_manager, _ = run_barriered()
        pool = PoolBackend(max_workers=2)
        try:
            service_manager, _ = run_service(backend=pool)
        finally:
            pool.close()
        barriered = barriered_manager.executed_batches
        serviced = service_manager.executed_batches
        # Per-shard locking may split a barriered window across several
        # service windows (a request blocked behind a busy shard flushes
        # later, on its own), and where the split lands depends on real
        # chain wall-clock — so only timing-independent accounting is
        # compared: the same requests get retrained, and the total chain
        # cost is identical (a split window costs one chain per affected
        # shard either way).
        assert len(serviced) >= len(barriered)
        assert sum(b.chains_submitted for b in barriered) == sum(
            b.chains_submitted for b in serviced
        )
        assert sum(b.num_requests for b in barriered) == sum(
            b.num_requests for b in serviced
        )


class TestOverlapAccounting:
    def test_barriered_batches_complete_in_their_round(self):
        manager, _ = run_barriered()
        for batch in manager.executed_batches:
            assert batch.completed_round == batch.executed_round
            assert batch.overlap_rounds == 0
            assert not batch.in_flight

    def test_inflight_window_reports_in_flight(self):
        ensemble = fresh_ensemble(backend=PoolBackend(max_workers=2))
        try:
            service = make_service(ensemble, BatchSizePolicy(1))
            manager = service.manager
            service.submit(client_id=0, indices=[3], round_index=0)
            batch = service.maybe_submit(0)
            assert batch is not None
            assert batch.in_flight
            assert batch.overlap_rounds == 0  # unknown until completion
            assert service.windows_in_flight
            finished = service.drain(4)
            assert len(finished) == 1 and finished[0] is batch
            assert batch.completed_round == 4
            assert batch.overlap_rounds == 4
            assert batch.outcome is not None
        finally:
            ensemble.backend.close()

    def test_service_outcome_carries_deletion_report(self):
        manager, _ = run_barriered()
        pool = PoolBackend(max_workers=2)
        try:
            service_manager, _ = run_service(backend=pool)
        finally:
            pool.close()
        def totals(batches):
            shards, slices = set(), 0
            for batch in batches:
                assert batch.outcome is not None
                shards.update(batch.outcome.shards_affected)
                slices += batch.outcome.slices_retrained
            return shards, slices

        # Window boundaries may differ (per-shard splits are timing
        # dependent) but the work they account for is identical.
        assert totals(manager.executed_batches) == totals(
            service_manager.executed_batches
        )


class TestWindowDiscipline:
    def test_policy_deferred_while_window_in_flight(self):
        ensemble = fresh_ensemble(backend=PoolBackend(max_workers=2))
        try:
            service = make_service(ensemble, BatchSizePolicy(1))
            manager = service.manager
            service.submit(client_id=0, indices=[3], round_index=0)
            first = service.maybe_submit(0)
            assert first is not None
            service.submit(client_id=0, indices=[40], round_index=1)
            # Policy fires but a window is outstanding: deferred, queued.
            assert service.maybe_submit(1) is None
            assert manager.num_pending == 1
            service.drain(2)
            second = service.maybe_submit(3)
            assert second is not None
            service.drain(4)
            assert second.outcome.num_deleted == 1
        finally:
            ensemble.backend.close()

    def test_disjoint_shard_windows_overlap(self):
        """Per-shard locking: windows on disjoint shards retrain at once."""
        ensemble = fresh_ensemble(backend=PoolBackend(max_workers=2))
        try:
            service = make_service(ensemble, BatchSizePolicy(1))
            manager = service.manager
            service.submit(client_id=0, indices=[3], round_index=0)  # shard 2
            first = service.maybe_submit(0)
            assert first is not None
            service.submit(client_id=0, indices=[2], round_index=1)  # shard 1
            second = service.maybe_submit(1)
            assert second is not None
            assert service.windows_in_flight == 2
            assert service.max_windows_in_flight >= 2
            finished = service.drain(2)
            assert len(finished) == 2
            assert all(not batch.in_flight for batch in finished)
            assert ensemble.deleted_indices >= {2, 3}
        finally:
            ensemble.backend.close()

    def test_armed_remainder_flushes_without_new_firing(self):
        """A policy firing admits every pending request, even ones a shard
        lock defers — they flush once the shard frees, with no further
        firing (BatchSizePolicy(2) can never fire for a lone leftover)."""
        ensemble = fresh_ensemble(backend=PoolBackend(max_workers=2))
        try:
            service = make_service(ensemble, BatchSizePolicy(2))
            manager = service.manager
            service.submit(client_id=0, indices=[3], round_index=0)  # shard 2
            service.submit(client_id=0, indices=[40], round_index=0)  # shard 2
            first = service.maybe_submit(0)
            assert first is not None and first.num_requests == 2
            # Policy fires again, but 70 shares shard 2 with the window
            # in flight — only 41 (shard 1) flushes.
            service.submit(client_id=0, indices=[41], round_index=1)  # shard 1
            service.submit(client_id=0, indices=[70], round_index=1)  # shard 2
            second = service.maybe_submit(1)
            assert second is not None and second.num_requests == 1
            assert manager.num_pending == 1
            assert service.maybe_submit(2) is None  # shard 2 still locked
            service.drain(3)
            third = service.maybe_submit(4)
            assert third is not None and third.num_requests == 1
            service.drain(5)
            assert manager.num_pending == 0
        finally:
            ensemble.backend.close()

    def test_overlapping_delete_begin_rejected(self):
        ensemble = fresh_ensemble()
        ensemble.delete_begin([3])  # locks shard 2
        with pytest.raises(RuntimeError, match="already in flight"):
            ensemble.delete_begin([40])  # index 40 is also shard 2

    def test_disjoint_shard_delete_begin_allowed(self):
        ensemble = fresh_ensemble()
        first = ensemble.delete_begin([3])  # shard 2
        second = ensemble.delete_begin([2])  # shard 1
        # Windows may finish out of submission order.
        for pending in (second, first):
            results = ensemble.backend.run_tasks(pending.tasks)
            ensemble.delete_finish(pending, results)
        assert ensemble.deleted_indices >= {2, 3}

    def test_delete_finish_requires_begun_window(self):
        ensemble = fresh_ensemble()
        pending = ensemble.delete_begin([3])
        results = ensemble.backend.run_tasks(pending.tasks)
        ensemble.delete_finish(pending, results)
        with pytest.raises(RuntimeError, match="no deletion window"):
            ensemble.delete_finish(pending, results)

    def test_rerequested_deleted_indices_complete_immediately(self):
        ensemble = fresh_ensemble()
        ensemble.delete([3])
        service = make_service(ensemble, BatchSizePolicy(1))
        service.submit(client_id=0, indices=[3], round_index=0)
        batch = service.maybe_submit(0)
        assert batch is not None
        assert not batch.in_flight
        assert batch.chains_submitted == 0
        assert not service.windows_in_flight

    def test_chain_failure_unlocks_ensemble(self):
        """A failed window must not wedge every future deletion."""

        class _FailingBackend:
            def run_tasks(self, tasks):
                raise RuntimeError("chains exploded")

        ensemble = fresh_ensemble()
        healthy = ensemble.backend
        ensemble.backend = _FailingBackend()
        with pytest.raises(RuntimeError, match="chains exploded"):
            ensemble.delete([3])
        # Unlocked: the logical deletion stands, a retry on new indices
        # proceeds instead of raising "already in flight".
        ensemble.backend = healthy
        report = ensemble.delete([40])
        assert report.num_deleted == 1
        assert 3 in ensemble.deleted_indices  # logically gone either way

    def test_periodic_policy_cadence_respected(self):
        ensemble = fresh_ensemble()
        service = make_service(ensemble, PeriodicPolicy(every_rounds=3))
        service.submit(client_id=0, indices=[3], round_index=1)
        assert service.maybe_submit(1) is None  # 1 % 3 != 0
        assert service.maybe_submit(3) is not None
