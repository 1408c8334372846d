"""The durable unlearning service: state machine, WAL, crash recovery.

Contract under test: every transition is journaled write-ahead; replay
after a crash (worker kill, torn journal tail, duplicate resubmission)
rebuilds the service and re-certifies interrupted windows with shard
states **bit-identical** to an uninterrupted run.
"""

import os
import shutil

import numpy as np
import pytest

from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend
from repro.unlearning import (
    BatchSizePolicy,
    DeletionManager,
    DeletionRequest,
    FaultInjector,
    ImmediatePolicy,
    Journal,
    JournalCorruption,
    PoissonArrivals,
    RequestState,
    SisaConfig,
    SisaEnsemble,
    SlaMeter,
    UnlearningService,
    replay_journal,
)

from ..conftest import make_blobs

FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
SISA = SisaConfig(num_shards=3, num_slices=2, epochs_per_slice=1, batch_size=8)
DATASET = make_blobs(num_samples=72, num_classes=3, shape=(1, 4, 4), seed=0)

# Shard facts for seed=5: indices 3, 40, 70 land in shard 2; 2, 41 in
# shard 1 (see test_deletion_service.py, which derives the same layout).


def fresh_ensemble(backend=None):
    return SisaEnsemble(FACTORY, DATASET, SISA, seed=5, backend=backend).fit()


def shard_states(ensemble):
    return [
        {key: value.copy() for key, value in shard.model.state_dict().items()}
        for shard in ensemble._shards
    ]


def assert_states_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert set(got) == set(want)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])


def journal_events(directory):
    return [
        record["event"]
        for record in replay_journal(os.path.join(str(directory), "journal.jsonl"))
    ]


def reference_states(indices_by_round):
    """Barriered serial run: the bit-identity oracle."""
    ensemble = fresh_ensemble()
    manager = DeletionManager(BatchSizePolicy(1))
    for round_index, indices in indices_by_round:
        manager.submit(client_id=0, indices=indices, round_index=round_index)
        manager.maybe_execute_batched(ensemble, round_index)
    return shard_states(ensemble)


class TestStateMachine:
    def test_lifecycle_and_journal_order(self, tmp_path):
        """received → validated → scheduled → retraining → certified,
        with every transition journaled before it takes effect."""
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(2)
        ) as service:
            first = service.submit(0, [3], 1, request_id="r1")
            assert first.state == RequestState.VALIDATED
            assert service.tick(1)["submitted"] is None  # policy not fired
            service.submit(0, [40], 1, request_id="r2")
            out = service.tick(1)
            assert out["submitted"] is not None
            service.drain(2)
            assert service.states() == {"r1": "certified", "r2": "certified"}
            # The serial backend completes the window inside the same
            # round it was submitted, so time-to-forget is zero rounds.
            assert first.time_to_forget_rounds == 0
            assert first.time_to_forget_seconds is not None
        records = replay_journal(str(tmp_path / "svc" / "journal.jsonl"))
        assert [r["event"] for r in records] == [
            "received",
            "validated",
            "received",
            "validated",
            "scheduled",
            "retraining",
            "certified",
        ]
        assert [r["seq"] for r in records] == list(range(len(records)))
        scheduled = next(r for r in records if r["event"] == "scheduled")
        assert scheduled["requests"] == ["r1", "r2"]
        assert scheduled["indices"] == [3, 40]
        assert scheduled["shards"] == [2]

    def test_sla_report_after_certification(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            service.submit(0, [3], 0, request_id="r1")
            service.tick(0)
            service.drain(1)
            report = service.sla.report()
        assert report["certified_requests"] == 1
        assert report["p50_rounds"] == 0.0  # serial: certified same round
        assert report["p95_rounds"] == 0.0
        assert report["p50_seconds"] >= 0.0

    def test_rerequest_of_deleted_index_certifies_as_noop(self, tmp_path):
        """Indices already forgotten re-certify without retraining."""
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            service.submit(0, [3], 0, request_id="r1")
            service.tick(0)
            service.drain(1)
            before = shard_states(service.ensemble)
            service.submit(0, [3], 2, request_id="r2")
            service.tick(2)
            service.drain(3)
            assert service.states()["r2"] == RequestState.CERTIFIED
            assert_states_equal(shard_states(service.ensemble), before)
        events = journal_events(tmp_path / "svc")
        assert "noop" in events
        assert events.count("retraining") == 1


class TestValidation:
    def test_empty_index_set_rejected_with_clear_error(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            with pytest.raises(ValueError, match="no indices"):
                service.submit(0, [], 0, request_id="bad")
            assert service.states() == {"bad": RequestState.FAILED}
            assert (
                service.requests["bad"].failure_reason
                == "deletion request with no indices"
            )
            assert service.manager.num_pending == 0
            # A bad request does not poison well-formed ones.
            service.submit(0, [3], 0, request_id="good")
            service.tick(0)
            service.drain(1)
            assert service.states()["good"] == RequestState.CERTIFIED
        assert journal_events(tmp_path / "svc")[:3] == [
            "received",
            "failed",
            "received",
        ]

    def test_out_of_range_index_rejected(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc")
        ) as service:
            with pytest.raises(ValueError, match="out of range"):
                service.submit(0, [len(DATASET)], 0, request_id="oob")
            assert service.states()["oob"] == RequestState.FAILED

    def test_fresh_start_on_populated_directory_refused(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc")
        ) as service:
            service.submit(0, [3], 0, request_id="r1")
        with pytest.raises(RuntimeError, match="recover"):
            UnlearningService(fresh_ensemble(), str(tmp_path / "svc"))


class TestDuplicates:
    def test_duplicate_request_id_returns_original(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(5)
        ) as service:
            first = service.submit(0, [3], 0, request_id="dup")
            again = service.submit(0, [3, 40], 4, request_id="dup")
            assert again is first
            assert service.duplicates == 1
            assert service.manager.num_pending == 1  # no second enqueue
        assert journal_events(tmp_path / "svc") == [
            "received",
            "validated",
            "duplicate",
        ]

    def test_duplicate_detected_across_restart(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            service.submit(0, [3], 0, request_id="dup")
            service.tick(0)
            service.drain(1)
        recovered = UnlearningService.recover(
            str(tmp_path / "svc"), model_factory=FACTORY, dataset=DATASET
        )
        with recovered:
            again = recovered.submit(0, [3], 5, request_id="dup")
            assert again.state == RequestState.CERTIFIED
            assert recovered.duplicates == 1
            assert recovered.manager.num_pending == 0

    def test_auto_ids_resume_past_recovered_requests(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(5)
        ) as service:
            auto = service.submit(0, [3], 0)
            assert auto.request_id == "req-000000"
        recovered = UnlearningService.recover(
            str(tmp_path / "svc"), model_factory=FACTORY, dataset=DATASET
        )
        with recovered:
            fresh = recovered.submit(0, [40], 1)
            assert fresh.request_id == "req-000001"


    def test_generated_id_skips_one_a_caller_already_took(self, tmp_path):
        """An anonymous request must never be mistaken for a retry of a
        caller-chosen ``req-N`` id — that would drop its indices while
        reporting them certified."""
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            first = service.submit(0, [3], 0, request_id="req-000000")
            service.tick(0)
            second = service.submit(0, [5], 0)
            service.tick(0)
            service.drain(1)
            assert second is not first
            assert len(service.requests) == 2
            assert service.duplicates == 0
            assert set(service.states().values()) == {RequestState.CERTIFIED}
            assert {3, 5} <= service.ensemble.deleted_indices


class TestConcurrency:
    def test_disjoint_shard_windows_in_flight_together(self, tmp_path):
        """Per-shard locking: two windows demonstrably retrain at once."""
        backend = PoolBackend(max_workers=2)
        ensemble = fresh_ensemble(backend=backend)
        try:
            service = UnlearningService(
                ensemble, str(tmp_path / "svc"), policy=BatchSizePolicy(1)
            )
            service.submit(0, [3], 0, request_id="a")  # shard 2
            assert service.maybe_submit(0) is not None
            service.submit(0, [2], 1, request_id="b")  # shard 1
            assert service.maybe_submit(1) is not None
            assert service.windows_in_flight == 2
            service.drain(2)
            assert service.max_windows_in_flight >= 2
            assert service.states() == {"a": "certified", "b": "certified"}
            service.close()
        finally:
            backend.close()


class TestCrashRecovery:
    def test_recover_after_clean_shutdown_is_bit_identical(self, tmp_path):
        expected = reference_states([(0, [3, 40])])
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            service.submit(0, [3, 40], 0, request_id="r1")
            service.tick(0)
            service.drain(1)
            assert_states_equal(shard_states(service.ensemble), expected)
        recovered = UnlearningService.recover(
            str(tmp_path / "svc"), model_factory=FACTORY, dataset=DATASET
        )
        with recovered:
            assert recovered.states() == {"r1": "certified"}
            assert recovered.sla.num_certified == 1
            assert_states_equal(shard_states(recovered.ensemble), expected)
            assert recovered.ensemble.deleted_indices >= {3, 40}

    def test_worker_kill_between_begin_and_finish_recovers(self, tmp_path):
        """Satellite: a pool worker dies after ``delete_begin`` but before
        ``delete_finish``; the pool's retry budget re-runs the chain and
        drain certifies shard states bit-identical to a no-fault run."""
        expected = reference_states([(0, [3, 40])])
        backend = PoolBackend(max_workers=2, max_task_retries=1)
        ensemble = fresh_ensemble(backend=backend)
        try:
            injector = FaultInjector(
                str(tmp_path / "faults"), seed=3, kill_probability=1.0, max_kills=1
            )
            service = UnlearningService(
                ensemble,
                str(tmp_path / "svc"),
                policy=BatchSizePolicy(2),
                task_filter=injector.task_filter,
            )
            service.submit(0, [3], 0, request_id="r1")
            service.submit(0, [40], 0, request_id="r2")
            out = service.tick(0)
            assert out["submitted"] is not None
            assert injector.kills_planned == 1
            service.drain(1)
            assert service.states() == {"r1": "certified", "r2": "certified"}
            assert_states_equal(shard_states(ensemble), expected)
            # The kill really happened: the marker file is on disk.
            markers = os.listdir(str(tmp_path / "faults"))
            assert any(name.startswith("kill-w") for name in markers)
            service.close()
        finally:
            backend.close()

    def test_crash_mid_retraining_resubmits_and_matches(self, tmp_path):
        """Process dies with a window journaled ``retraining`` but never
        certified: recovery resubmits it from the journaled index set and
        the re-certified shard states are bit-identical."""
        expected = reference_states([(0, [3, 40])])
        backend = PoolBackend(max_workers=2, max_task_retries=1)
        ensemble = fresh_ensemble(backend=backend)
        try:
            injector = FaultInjector(
                str(tmp_path / "faults"), seed=7, kill_probability=1.0, max_kills=2
            )
            service = UnlearningService(
                ensemble,
                str(tmp_path / "svc"),
                policy=BatchSizePolicy(2),
                task_filter=injector.task_filter,
            )
            service.submit(0, [3], 0, request_id="r1")
            service.submit(0, [40], 0, request_id="r2")
            assert service.tick(0)["submitted"] is not None
            # Crash: never poll/drain — the journal's last word is
            # "retraining".  Abandon the in-flight window entirely.
            service.close()
        finally:
            backend.close()
        events = journal_events(tmp_path / "svc")
        assert events[-1] == "retraining"
        recovered = UnlearningService.recover(
            str(tmp_path / "svc"),
            model_factory=FACTORY,
            dataset=DATASET,
            round_index=5,
        )
        with recovered:
            # recover() resubmits the window; the serial backend runs it
            # to completion inline, so it is already certified here.
            recovered.drain(6)
            assert recovered.states() == {"r1": "certified", "r2": "certified"}
            assert_states_equal(shard_states(recovered.ensemble), expected)
        events = journal_events(tmp_path / "svc")
        assert "resubmitted" in events
        assert events[-1] == "certified"

    def test_crash_during_the_base_save_starts_fresh_again(self, tmp_path, monkeypatch):
        """The process dies at the second checkpoint of a fresh service's
        base save.  That save left no manifest, so the next fresh service
        in the directory saves again, and the directory recovers."""
        import repro.unlearning.sisa as sisa_module

        real_save = sisa_module.save_state_dict
        calls = []

        def dying_save(state, path):
            calls.append(path)
            if len(calls) == 2:
                raise RuntimeError("simulated crash mid base save")
            real_save(state, path)

        monkeypatch.setattr(sisa_module, "save_state_dict", dying_save)
        with pytest.raises(RuntimeError, match="simulated"):
            UnlearningService(fresh_ensemble(), str(tmp_path / "svc"))
        monkeypatch.undo()
        assert not os.path.exists(str(tmp_path / "svc" / "ensemble" / "manifest.json"))
        expected = reference_states([(0, [3])])
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            service.submit(0, [3], 0, request_id="r1")
            service.tick(0)
            service.drain(1)
        recovered = UnlearningService.recover(
            str(tmp_path / "svc"), model_factory=FACTORY, dataset=DATASET
        )
        with recovered:
            assert recovered.states() == {"r1": "certified"}
            assert_states_equal(shard_states(recovered.ensemble), expected)

    def test_crash_between_received_and_validated_revalidates(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(5)
        ) as service:
            service.submit(0, [3], 0, request_id="r1")
        journal_path = str(tmp_path / "svc" / "journal.jsonl")
        with open(journal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        # Drop the trailing "validated" record: the crash landed between
        # the two appends.  Validation is deterministic, so recovery
        # re-runs it and re-queues the request.
        FaultInjector.truncate_journal(journal_path, len(lines[-1]))
        recovered = UnlearningService.recover(
            str(tmp_path / "svc"), model_factory=FACTORY, dataset=DATASET
        )
        with recovered:
            assert recovered.states() == {"r1": RequestState.VALIDATED}
            assert recovered.manager.num_pending == 1

    def test_torn_certified_record_reruns_window(self, tmp_path):
        """A tear inside the final (certified) journal line: replay drops
        it, recovery treats the window as incomplete, and the re-run
        converges to the same bit-identical states."""
        expected = reference_states([(0, [3, 40])])
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            service.submit(0, [3, 40], 0, request_id="r1")
            service.tick(0)
            service.drain(1)
        journal_path = str(tmp_path / "svc" / "journal.jsonl")
        with open(journal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        FaultInjector.truncate_journal(journal_path, len(lines[-1]) - 3)
        recovered = UnlearningService.recover(
            str(tmp_path / "svc"),
            model_factory=FACTORY,
            dataset=DATASET,
            round_index=3,
        )
        with recovered:
            recovered.drain(4)
            assert recovered.states() == {"r1": "certified"}
            assert_states_equal(shard_states(recovered.ensemble), expected)

    def test_recovering_twice_after_a_tear(self, tmp_path):
        """The first recovery's records must not land on the torn line:
        a second recovery replays the journal the first one left."""
        expected = reference_states([(0, [3, 40])])
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            service.submit(0, [3, 40], 0, request_id="r1")
            service.tick(0)
            service.drain(1)
        journal_path = str(tmp_path / "svc" / "journal.jsonl")
        with open(journal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        FaultInjector.truncate_journal(journal_path, len(lines[-1]) - 3)
        for round_index in (3, 5):
            recovered = UnlearningService.recover(
                str(tmp_path / "svc"),
                model_factory=FACTORY,
                dataset=DATASET,
                round_index=round_index,
            )
            with recovered:
                assert recovered.states() == {"r1": "certified"}
                assert_states_equal(shard_states(recovered.ensemble), expected)
        assert journal_events(tmp_path / "svc")[-3:] == [
            "resubmitted",
            "retraining",
            "certified",
        ]


class TestCrashAtEveryBoundary:
    """Generated crash points: the process dies after *each* journal
    record of a five-request history; recovery plus a client-side retry
    of the whole script must converge on the uninterrupted run."""

    # (round, request_id, indices): single-shard windows on shards 2 and
    # 1, one request spanning both, and a re-request of an index already
    # forgotten (so a ``noop`` record is part of the history).
    SCRIPT = [
        (0, "r1", [3]),
        (1, "r2", [2, 40]),
        (2, "r3", [41]),
        (3, "r4", [3]),
        (4, "r5", [70]),
    ]

    @staticmethod
    def serve(service, script):
        for round_index, request_id, indices in script:
            service.submit(0, indices, round_index, request_id=request_id)
            service.tick(round_index)
            service.drain(round_index)

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("boundary") / "svc"
        with UnlearningService(
            fresh_ensemble(), str(directory), policy=ImmediatePolicy()
        ) as service:
            self.serve(service, self.SCRIPT)
            assert set(service.states().values()) == {RequestState.CERTIFIED}
            deleted = service.ensemble.deleted_indices
            states = shard_states(service.ensemble)
        with open(str(directory / "journal.jsonl"), "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        events = journal_events(directory)
        assert "noop" in events and len(events) == len(lines) > 20
        return directory, lines, deleted, states

    @pytest.mark.parametrize("keep_later_sidecars", [True, False])
    def test_recovery_converges_from_every_prefix(
        self, uninterrupted, tmp_path, keep_later_sidecars
    ):
        source, lines, deleted, states = uninterrupted
        for cut in range(len(lines) + 1):
            crashed = tmp_path / f"cut{cut:02d}"
            shutil.copytree(str(source), str(crashed))
            with open(str(crashed / "journal.jsonl"), "wb") as handle:
                handle.write(b"".join(lines[:cut]))
            if not keep_later_sidecars:
                # Keeping them is the documented "sidecar without its
                # record" case; dropping them is a crash before the rename.
                certified = {
                    f"{record['window']:06d}"
                    for record in replay_journal(str(crashed / "journal.jsonl"))
                    if record["event"] == "certified"
                }
                for name in os.listdir(str(crashed / "windows")):
                    if name not in certified:
                        shutil.rmtree(str(crashed / "windows" / name))
            recovered = UnlearningService.recover(
                str(crashed),
                model_factory=FACTORY,
                dataset=DATASET,
                policy=ImmediatePolicy(),
                round_index=5,
            )
            with recovered:
                recovered.tick(5)
                recovered.drain(5)
                self.serve(recovered, self.SCRIPT)  # clients retry by id
                context = f"crash after record {cut} of {len(lines)}"
                assert recovered.states() == {
                    request_id: RequestState.CERTIFIED
                    for _, request_id, _ in self.SCRIPT
                }, context
                assert recovered.ensemble.deleted_indices == deleted, context
                assert_states_equal(shard_states(recovered.ensemble), states)


class TestJournal:
    def test_truncated_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            for i in range(3):
                journal.append({"event": "tick", "i": i})
        FaultInjector.truncate_journal(path, drop_bytes=5)
        records = replay_journal(path)
        assert [record["i"] for record in records] == [0, 1]

    def test_non_tail_corruption_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            for i in range(3):
                journal.append({"event": "tick", "i": i})
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[0] = b"not json at all\n"
        with open(path, "wb") as handle:
            handle.write(b"".join(lines))
        with pytest.raises(JournalCorruption, match="line 1"):
            replay_journal(path)

    def test_sequence_resumes_across_reopen(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.append({"event": "a"})
        with Journal(path) as journal:
            record = journal.append({"event": "b"})
        assert record["seq"] == 1
        assert [r["seq"] for r in replay_journal(path)] == [0, 1]


class TestCompaction:
    def _run_workload(self, directory):
        """Two certified windows + one duplicate + one still-queued request."""
        service = UnlearningService(
            fresh_ensemble(), str(directory), policy=BatchSizePolicy(1)
        )
        service.submit(0, [3], 0, request_id="r1")
        service.tick(0)
        service.drain(1)
        service.submit(0, [40], 2, request_id="r2")
        service.tick(2)
        service.drain(3)
        service.submit(0, [3], 4, request_id="r1")  # duplicate
        service.submit(1, [2], 4, request_id="r3")  # queued, policy not fired
        return service

    def test_compact_collapses_history_to_one_snapshot(self, tmp_path):
        with self._run_workload(tmp_path / "svc") as service:
            history = len(replay_journal(str(tmp_path / "svc" / "journal.jsonl")))
            assert history > 1
            snapshot = service.compact()
        records = replay_journal(str(tmp_path / "svc" / "journal.jsonl"))
        assert [r["event"] for r in records] == ["snapshot"]
        # Ordering survives: the snapshot takes the next seq, not seq 0.
        assert records[0]["seq"] == snapshot["seq"] == history

    def test_recovery_from_snapshot_matches_full_history(self, tmp_path):
        with self._run_workload(tmp_path / "full") as service:
            expected_states = service.states()
            expected_shards = shard_states(service.ensemble)
        with self._run_workload(tmp_path / "compacted") as service:
            service.compact()
        for directory in ("full", "compacted"):
            recovered = UnlearningService.recover(
                str(tmp_path / directory), model_factory=FACTORY, dataset=DATASET
            )
            with recovered:
                assert recovered.states() == expected_states
                assert_states_equal(shard_states(recovered.ensemble), expected_shards)
                assert recovered.duplicates == 1
                assert recovered.sla.num_certified == 2
                # The queued request really re-queued (O(live state)
                # recovery loses no pending work).
                assert recovered.manager.num_pending == 1

    def test_service_continues_after_compaction(self, tmp_path):
        expected = reference_states([(0, [3]), (2, [40]), (5, [2])])
        with self._run_workload(tmp_path / "svc") as service:
            service.compact()
            service.tick(5)  # fires the queued r3 window
            service.drain(6)
            assert service.states()["r3"] == "certified"
            assert_states_equal(shard_states(service.ensemble), expected)
        events = journal_events(tmp_path / "svc")
        assert events[0] == "snapshot"
        assert "certified" in events[1:]
        recovered = UnlearningService.recover(
            str(tmp_path / "svc"), model_factory=FACTORY, dataset=DATASET
        )
        with recovered:
            assert recovered.states()["r3"] == "certified"
            assert_states_equal(shard_states(recovered.ensemble), expected)

    def test_crash_mid_compaction_recovers_bit_identically(self, tmp_path):
        """Die after writing the snapshot temp file but before the atomic
        replace: the original journal is untouched and the orphan temp
        file is invisible to recovery."""
        import repro.unlearning.journal as journal_module

        with self._run_workload(tmp_path / "svc") as service:
            expected_states = service.states()
            expected_shards = shard_states(service.ensemble)
            original_replace = journal_module.os.replace

            def crash(src, dst):
                raise OSError("simulated crash before atomic replace")

            journal_module.os.replace = crash
            try:
                with pytest.raises(OSError, match="simulated"):
                    service.compact()
            finally:
                journal_module.os.replace = original_replace
        assert os.path.exists(str(tmp_path / "svc" / "journal.jsonl.compact"))
        recovered = UnlearningService.recover(
            str(tmp_path / "svc"), model_factory=FACTORY, dataset=DATASET
        )
        with recovered:
            assert recovered.states() == expected_states
            assert_states_equal(shard_states(recovered.ensemble), expected_shards)
            # A later compaction overwrites the orphan and succeeds.
            recovered.compact()
            assert journal_events(tmp_path / "svc") == ["snapshot"]

    def test_compact_refused_with_windows_in_flight(self, tmp_path):
        backend = PoolBackend(max_workers=2)
        ensemble = fresh_ensemble(backend=backend)
        try:
            service = UnlearningService(
                ensemble, str(tmp_path / "svc"), policy=BatchSizePolicy(1)
            )
            service.submit(0, [3], 0, request_id="a")
            assert service.maybe_submit(0) is not None
            with pytest.raises(RuntimeError, match="in flight"):
                service.compact()
            service.drain(1)
            service.compact()  # fine once drained
            service.close()
        finally:
            backend.close()


class TestLoadAndMeters:
    def test_poisson_arrivals_deterministic(self):
        first = PoissonArrivals(2.0, 64, seed=9, indices_per_request=2)
        second = PoissonArrivals(2.0, 64, seed=9, indices_per_request=2)
        for round_index in range(10):
            a = first.arrivals(round_index)
            b = second.arrivals(round_index)
            assert [rid for rid, _ in a] == [rid for rid, _ in b]
            for (_, left), (_, right) in zip(a, b):
                np.testing.assert_array_equal(left, right)

    def test_poisson_arrivals_never_repeat_indices(self):
        stream = PoissonArrivals(5.0, 10, seed=1, indices_per_request=3)
        seen = []
        for round_index in range(50):
            for _, indices in stream.arrivals(round_index):
                seen.extend(int(i) for i in indices)
            if stream.remaining == 0:
                break
        assert sorted(seen) == list(range(10))

    def test_poisson_arrivals_validates_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            PoissonArrivals(0.0, 10)
        with pytest.raises(ValueError, match="indices_per_request"):
            PoissonArrivals(1.0, 10, indices_per_request=0)

    def test_sla_meter_percentiles(self):
        with pytest.raises(ValueError, match="no certified"):
            SlaMeter([]).percentile_rounds(50)
        requests = [
            DeletionRequest(
                request_id=f"r{rounds}",
                client_id=0,
                indices=np.asarray([0]),
                submitted_round=0,
                certified_round=rounds,
            )
            for rounds in (1, 2, 3, 4)
        ]
        report = SlaMeter(requests).report()
        assert report["certified_requests"] == 4
        assert report["p50_rounds"] == 2.5
        assert report["max_rounds"] == 4
        assert "p50_seconds" not in report  # no wall stamps recorded
