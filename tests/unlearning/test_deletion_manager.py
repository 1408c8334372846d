"""Deletion-request queueing, policies and latency accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.unlearning import (
    BatchSizePolicy,
    DeletionManager,
    DeletionRequest,
    ExecutedBatch,
    ImmediatePolicy,
    PeriodicPolicy,
)


class TestDeletionRequest:
    def test_indices_deduplicated_and_sorted(self):
        request = DeletionRequest(0, np.array([5, 1, 5, 3]), submitted_round=0)
        np.testing.assert_array_equal(request.indices, [1, 3, 5])

    def test_validation(self):
        with pytest.raises(ValueError, match="submitted_round"):
            DeletionRequest(0, np.array([1]), -1)


class TestPolicies:
    def request(self, round_index=0):
        return DeletionRequest(0, np.array([1]), round_index)

    def test_immediate(self):
        policy = ImmediatePolicy()
        assert not policy.should_execute([], 0)
        assert policy.should_execute([self.request()], 0)

    def test_batch_size(self):
        policy = BatchSizePolicy(min_requests=2)
        assert not policy.should_execute([self.request()], 5)
        assert policy.should_execute([self.request(), self.request()], 5)
        with pytest.raises(ValueError):
            BatchSizePolicy(0)

    def test_periodic(self):
        policy = PeriodicPolicy(every_rounds=3)
        pending = [self.request()]
        assert policy.should_execute(pending, 0)
        assert not policy.should_execute(pending, 1)
        assert not policy.should_execute(pending, 2)
        assert policy.should_execute(pending, 3)
        assert not policy.should_execute([], 3)
        with pytest.raises(ValueError):
            PeriodicPolicy(0)


class TestQueueMechanics:
    def test_policy_gate(self):
        manager = DeletionManager(BatchSizePolicy(min_requests=2))
        manager.submit(0, [1], round_index=0)
        assert manager.maybe_execute_batched(None, 0) is None
        assert manager.num_pending == 1

    def test_mean_latency_requires_history(self):
        manager = DeletionManager()
        with pytest.raises(ValueError, match="no executed"):
            manager.mean_latency()

    def test_empty_indices_rejected_with_clear_error(self):
        manager = DeletionManager()
        with pytest.raises(ValueError, match="no indices"):
            manager.submit(0, [], round_index=0)
        assert manager.num_pending == 0


class TestExecutedBatch:
    def requests(self, *rounds):
        return [DeletionRequest(0, [index], r) for index, r in enumerate(rounds)]

    def test_latencies_are_rounds_waited(self):
        batch = ExecutedBatch(5, self.requests(1, 5, 3))
        assert batch.latencies == [4, 0, 2]
        assert batch.max_latency == 4
        assert batch.num_requests == 3

    def test_in_flight_until_completed(self):
        batch = ExecutedBatch(2, self.requests(0))
        assert batch.in_flight
        assert batch.overlap_rounds == 0
        batch.completed_round = 5
        assert not batch.in_flight
        assert batch.overlap_rounds == 3

    def test_flush_takes_only_the_batch_requests_off_the_queue(self):
        manager = DeletionManager(BatchSizePolicy(99))
        first = manager.submit(0, [1], round_index=0)
        second = manager.submit(0, [2], round_index=1)
        manager.flush(ExecutedBatch(1, [first], chains_submitted=2, completed_round=3))
        assert manager.pending == [second]
        assert manager.num_executions == 1
        assert manager.total_chains_submitted == 2
        assert manager.total_overlap_rounds == 2

    def test_merged_global_indices_drop_already_deleted(self):
        manager = DeletionManager(BatchSizePolicy(99))
        manager.submit(0, [4, 1], round_index=0)
        manager.submit(1, [9, 4], round_index=0)
        merged = manager.merged_global_indices(already_deleted={4, 7})
        assert merged.tolist() == [1, 9]


class TestProperties:
    @given(
        submissions=st.lists(
            st.tuples(
                st.integers(0, 3),                      # client id
                st.lists(st.integers(0, 30), min_size=1, max_size=6),
                st.integers(0, 10),                     # round
            ),
            min_size=1, max_size=12,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_merged_global_indices_cover_all_submissions(self, submissions):
        manager = DeletionManager(BatchSizePolicy(min_requests=10_000))
        expected = set()
        for client_id, indices, round_index in submissions:
            manager.submit(client_id, indices, round_index)
            expected.update(indices)
        assert manager.merged_global_indices().tolist() == sorted(expected)


class TestBatchedSisaExecution:
    """The runtime-routed path: a flush window coalesces every pending
    request into one ensemble.delete() — one retrain chain per affected
    shard, not per request."""

    def build_ensemble(self, backend=None):
        from repro.nn.models import RegistryModelFactory
        from repro.unlearning import SisaConfig, SisaEnsemble

        from ..conftest import make_blobs

        factory = RegistryModelFactory(
            name="mlp", num_classes=3, in_channels=1, image_size=4
        )
        dataset = make_blobs(num_samples=54, num_classes=3, shape=(1, 4, 4))
        config = SisaConfig(
            num_shards=3, num_slices=3, epochs_per_slice=1, batch_size=8,
            learning_rate=0.08,
        )
        return SisaEnsemble(factory, dataset, config, seed=0, backend=backend).fit()

    def shard_targets(self, ensemble, shard, count, offset=0):
        """`count` distinct global indices living in `shard`."""
        return [
            int(ensemble._shards[shard].slice_indices[2][offset + i])
            for i in range(count)
        ]

    def test_window_submits_one_chain_per_affected_shard(self):
        ensemble = self.build_ensemble()
        manager = DeletionManager(BatchSizePolicy(min_requests=5))
        # Five requests, but they only touch shards 0 and 2.
        for round_index, target in enumerate(
            self.shard_targets(ensemble, 0, 3) + self.shard_targets(ensemble, 2, 2)
        ):
            assert (
                manager.maybe_execute_batched(ensemble, round_index) is None
                or round_index == 4
            )
            manager.submit(client_id=0, indices=[target], round_index=round_index)
        batch = manager.maybe_execute_batched(ensemble, round_index=5)
        assert batch is not None
        assert batch.num_requests == 5
        assert batch.chains_submitted == 2  # shards 0 and 2, once each
        assert batch.chains_submitted < batch.num_requests
        assert batch.outcome.shards_affected == [0, 2]
        assert batch.outcome.num_deleted == 5
        assert manager.num_pending == 0
        assert manager.total_chains_submitted == 2
        assert ensemble.num_deleted == 5

    def test_batched_matches_one_shot_delete(self):
        """Flushing a window is exactly one coalesced delete: the ensemble
        state is bit-identical to calling delete() once with the union."""
        batched = self.build_ensemble()
        manager = DeletionManager(BatchSizePolicy(min_requests=4))
        targets = self.shard_targets(batched, 0, 2) + self.shard_targets(batched, 1, 2)
        for round_index, target in enumerate(targets):
            manager.submit(client_id=0, indices=[target], round_index=round_index)
        batch = manager.maybe_execute_batched(batched, round_index=4)
        assert batch is not None

        oneshot = self.build_ensemble()
        oneshot.delete(sorted(targets))
        for a, b in zip(batched._shards, oneshot._shards):
            assert a.rng_state == b.rng_state
            for key, value in a.model.state_dict().items():
                np.testing.assert_array_equal(value, b.model.state_dict()[key])

    def test_latencies_recorded_per_request(self):
        ensemble = self.build_ensemble()
        manager = DeletionManager(PeriodicPolicy(every_rounds=4))
        manager.submit(0, [self.shard_targets(ensemble, 0, 1)[0]], round_index=1)
        manager.submit(0, [self.shard_targets(ensemble, 1, 1)[0]], round_index=3)
        assert manager.maybe_execute_batched(ensemble, round_index=3) is None
        batch = manager.maybe_execute_batched(ensemble, round_index=4)
        assert batch.latencies == [3, 1]
        assert batch.max_latency == 3

    def test_duplicate_indices_across_requests_coalesce(self):
        ensemble = self.build_ensemble()
        manager = DeletionManager(BatchSizePolicy(min_requests=2))
        target = self.shard_targets(ensemble, 0, 1)[0]
        manager.submit(0, [target], round_index=0)
        manager.submit(1, [target], round_index=1)  # same sample, twice
        batch = manager.maybe_execute_batched(ensemble, round_index=1)
        assert batch.num_requests == 2
        assert batch.outcome.num_deleted == 1
        assert batch.chains_submitted == 1

    def test_rerequested_deletion_does_not_wedge_the_queue(self):
        """A request for an already-deleted sample (idempotent re-submit)
        is filtered out of the window instead of poisoning every flush."""
        ensemble = self.build_ensemble()
        target = self.shard_targets(ensemble, 0, 1)[0]
        manager = DeletionManager()
        manager.submit(0, [target], round_index=0)
        first = manager.maybe_execute_batched(ensemble, round_index=0)
        assert first.chains_submitted == 1

        # Same sample again, plus a fresh one: the stale index is dropped,
        # the fresh one is honoured, and the queue drains.
        fresh = self.shard_targets(ensemble, 1, 1)[0]
        manager.submit(0, [target], round_index=1)
        manager.submit(0, [fresh], round_index=1)
        batch = manager.maybe_execute_batched(ensemble, round_index=1)
        assert batch is not None
        assert batch.outcome.num_deleted == 1
        assert manager.num_pending == 0
        assert ensemble.num_deleted == 2

        # A window containing ONLY stale indices executes nothing but
        # still clears (zero chains, outcome None).
        manager.submit(0, [target], round_index=2)
        empty = manager.maybe_execute_batched(ensemble, round_index=2)
        assert empty is not None
        assert empty.chains_submitted == 0
        assert empty.outcome is None
        assert manager.num_pending == 0

    def test_future_submission_round_rejected(self):
        ensemble = self.build_ensemble()
        manager = DeletionManager()
        manager.submit(0, [self.shard_targets(ensemble, 0, 1)[0]], round_index=7)
        with pytest.raises(ValueError, match="earlier round"):
            manager.maybe_execute_batched(ensemble, round_index=3)

    def test_merged_global_indices_empty_queue(self):
        manager = DeletionManager()
        np.testing.assert_array_equal(manager.merged_global_indices(), [])
