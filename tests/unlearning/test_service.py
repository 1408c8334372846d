"""The durable unlearning service: state machine, WAL, crash recovery.

Contract under test: every transition is journaled write-ahead; replay
after a crash (worker kill, torn journal tail, duplicate resubmission)
rebuilds the service and re-certifies interrupted windows with shard
states **bit-identical** to an uninterrupted run.
"""

import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.nn.models import RegistryModelFactory
from repro.runtime import PoolBackend, SerialBackend
from repro.unlearning import (
    BatchSizePolicy,
    DeletionManager,
    DeletionRequest,
    FaultInjector,
    ImmediatePolicy,
    Journal,
    JournalCorruption,
    RequestState,
    SisaConfig,
    SisaEnsemble,
    SlaMeter,
    UnlearningService,
    replay_journal,
)

from ..conftest import (
    counterfactual_fit,
    generated,
    log_durability,
    make_blobs,
    sidecar_files,
)

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


def shard_facts(ensemble):
    """Each shard's checkpoints and model, as bytes."""

    def raw(state):
        return {key: (v.dtype.str, v.shape, v.tobytes()) for key, v in state.items()}

    return [
        (
            {r: raw(state) for r, state in sorted(shard.checkpoints.items())},
            raw(shard.model.state_dict()),
        )
        for shard in ensemble._shards
    ]


class Crash(Exception):
    """A simulated process death."""


class SidecarCrash:
    """Counts the service's sidecar durability steps — each
    ``fsync_path`` and ``os.rename`` it makes — and dies in place of step
    ``at``.  Dying before a file's fsync is dying just after that file
    was written; before the temp directory's fsync, after the last
    checkpoint; then before the rename, and before the ``windows/``
    fsync."""

    def __init__(self, monkeypatch, at=None):
        import repro.unlearning.service as service_module

        self.at, self.steps = at, 0
        for owner, name in ((service_module, "fsync_path"), (os, "rename")):
            monkeypatch.setattr(owner, name, self.step(getattr(owner, name)))

    def step(self, real):
        def wrapper(*args):
            if self.steps == self.at:
                raise Crash(f"died before sidecar step {self.at}")
            self.steps += 1
            return real(*args)

        return wrapper


class SeamBackend(SerialBackend):
    """A serial backend with the ``submit``/``poll``/``drain`` seam, so
    the service tickets its windows; a ticket runs when drained.
    Each submission is logged as ``("submit", task ids)``."""

    def __init__(self, log):
        self.log = log

    def submit(self, tasks):
        self.log.append(("submit", [task.task_id for task in tasks]))
        return list(tasks)

    def poll(self, ticket):
        return True

    def drain(self, ticket):
        return self.run_tasks(ticket)


class FailingOnce(SerialBackend):
    """Serial, but the next ``run_tasks`` after :meth:`arm` raises."""

    armed = False

    def arm(self):
        self.armed = True

    def run_tasks(self, tasks):
        if self.armed:
            self.armed = False
            raise RuntimeError("retrain chains exploded")
        return super().run_tasks(tasks)


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

    def test_sla_meter_after_certification(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc"), policy=BatchSizePolicy(1)
        ) as service:
            service.submit(0, [3], 0, request_id="r1")
            service.tick(0)
            service.drain(1)
            assert service.sla.num_certified == 1
            # serial: certified the round it arrived
            assert service.sla.percentile_rounds(50) == 0.0
            assert service.sla.percentile_rounds(95) == 0.0
            assert service.requests["r1"].time_to_forget_seconds >= 0.0

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

    def test_negative_round_rejected_before_journaling(self, tmp_path):
        """A round replay would reject never reaches the journal, so the
        directory still recovers."""
        directory = str(tmp_path / "svc")
        with UnlearningService(fresh_ensemble(), directory) as service:
            with pytest.raises(ValueError, match="non-negative"):
                service.submit(0, [3], round_index=-1)
            assert service.requests == {}
        assert journal_events(directory) == []
        with UnlearningService.recover(
            directory, model_factory=FACTORY, dataset=DATASET
        ) as recovered:
            assert recovered.states() == {}
            recovered.submit(0, [3], 0, request_id="after")
            assert recovered.states() == {"after": RequestState.VALIDATED}

    def test_fractional_index_rejected_not_truncated(self, tmp_path):
        """``3.7`` names no sample; it must not become a deletion of 3."""
        directory = str(tmp_path / "svc")
        with UnlearningService(fresh_ensemble(), directory) as service:
            with pytest.raises(ValueError, match="whole numbers"):
                service.submit(0, [3.7], 0, request_id="frac")
            assert service.requests == {}
            # A float that is a whole number names that sample.
            whole = service.submit(0, [3.0, 5], 0, request_id="whole")
            np.testing.assert_array_equal(whole.indices, [3, 5])
        assert journal_events(directory) == ["received", "validated"]

    @pytest.mark.parametrize(
        "indices, round_index",
        [
            ([3], -(2**40)),
            ([3], 1.5),
            ([3], "0"),
            ([1, 2.5], 0),
            ([np.nan], 0),
            ([np.inf], 0),
            (["3"], 0),
            ([True], 0),
        ],
    )
    def test_rejected_before_journaling(self, indices, round_index, tmp_path):
        directory = str(tmp_path / "svc")
        with UnlearningService(fresh_ensemble(), directory) as service:
            for _ in range(2):  # a rejected id is not a duplicate next time
                with pytest.raises(ValueError):
                    service.submit(0, indices, round_index, request_id="bad")
            assert service.requests == {}
            assert service.duplicates == 0
        assert journal_events(directory) == []
        with UnlearningService.recover(
            directory, model_factory=FACTORY, dataset=DATASET
        ) as recovered:
            assert recovered.states() == {}

    def test_known_id_with_a_bad_round_raises_before_journaling(self, tmp_path):
        directory = str(tmp_path / "svc")
        with UnlearningService(fresh_ensemble(), directory) as service:
            service.submit(0, [3], 0, request_id="r1")
            with pytest.raises(ValueError, match="non-negative"):
                service.submit(0, [3], -2, request_id="r1")
            assert service.duplicates == 0
        assert journal_events(directory) == ["received", "validated"]

    def test_fresh_start_on_populated_directory_refused(self, tmp_path):
        with UnlearningService(
            fresh_ensemble(), str(tmp_path / "svc")
        ) as service:
            service.submit(0, [3], 0, request_id="r1")
        with pytest.raises(RuntimeError, match="recover"):
            UnlearningService(fresh_ensemble(), str(tmp_path / "svc"))


# Generated intake: whole numbers in and out of range (duplicates are
# common in 0..5), fractional and non-finite floats, numeric strings and
# empty lists; rounds negative, zero and large; fresh, auto and repeated
# request ids.
ELEMENTS = st.one_of(
    st.integers(0, 5),
    st.integers(0, 5).map(float),
    st.integers(-3, -1),
    st.integers(len(DATASET), 10**6),
    st.floats(0, 10).filter(lambda value: not value.is_integer()),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(0, 5).map(str),
)
ROUNDS = st.one_of(st.integers(-3, -1), st.just(0), st.integers(1, 2**62))
CALLS = st.lists(
    st.tuples(
        st.lists(ELEMENTS, max_size=4), ROUNDS, st.sampled_from([None, "a", "b"])
    ),
    min_size=1,
    max_size=6,
)


def is_whole(value):
    return not isinstance(value, str) and float(value).is_integer()


class TestIntakeByGeneration:
    """Every ``submit`` is accepted with exactly the samples it named or
    raises only :class:`ValueError`; a call rejected before journaling
    leaves the journal untouched, and the directory always recovers to
    the live service's states."""

    ensemble = None

    @classmethod
    def fitted(cls):
        # Intake never retrains, so one fitted ensemble serves every example.
        if cls.ensemble is None:
            cls.ensemble = fresh_ensemble()
        return cls.ensemble

    @generated(100)
    @given(calls=CALLS)
    def test_submit_accepts_what_it_names_or_raises_value_error(self, calls):
        with tempfile.TemporaryDirectory() as directory:
            with UnlearningService(self.fitted(), directory) as service:
                for indices, round_index, request_id in calls:
                    self.check_call(service, directory, indices, round_index, request_id)
                live = service.states()
                named = {rid: r.indices.tolist() for rid, r in service.requests.items()}
            with UnlearningService.recover(
                directory, model_factory=FACTORY, dataset=DATASET
            ) as recovered:
                assert recovered.states() == live
                assert {
                    rid: r.indices.tolist() for rid, r in recovered.requests.items()
                } == named

    @staticmethod
    def check_call(service, directory, indices, round_index, request_id):
        before = dict(service.requests)
        journaled = len(journal_events(directory))
        whole = all(is_whole(value) for value in indices)
        if round_index < 0 or not whole:
            with pytest.raises(ValueError):
                service.submit(0, indices, round_index, request_id=request_id)
            assert service.requests == before
            assert len(journal_events(directory)) == journaled
            return
        if request_id in before:
            assert service.submit(0, indices, round_index, request_id) is before[request_id]
            return
        samples = sorted({int(value) for value in indices})
        if samples and all(0 <= value < len(DATASET) for value in samples):
            request = service.submit(0, indices, round_index, request_id=request_id)
            assert request.indices.tolist() == samples
            assert request.state == RequestState.VALIDATED
        else:
            with pytest.raises(ValueError):
                service.submit(0, indices, round_index, request_id=request_id)
            (request,) = [r for rid, r in service.requests.items() if rid not in before]
            assert request.state == RequestState.FAILED
            assert request.indices.tolist() == samples


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


class CrashedHistories:
    """A scripted history served once uninterrupted, and the crashes of
    it: recovery from a crashed directory plus a client-side retry of
    the whole script must equal the uninterrupted service — request
    states, deleted set, and every shard's checkpoints and model — and
    the uninterrupted service's ensemble must equal the fit that never
    held its deleted samples.  ``FAILS`` names requests whose window's
    chains fail."""

    SCRIPT: list = []
    FAILS: tuple = ()

    def serve(self, service, script):
        for round_index, request_id, indices in script:
            if request_id in self.FAILS and request_id not in service.requests:
                service.backend.arm()
            try:
                service.submit(0, indices, round_index, request_id=request_id)
                service.tick(round_index)
                service.drain(round_index)
            except RuntimeError as error:
                assert "exploded" in str(error), error

    def fresh_service(self, directory):
        return UnlearningService(
            fresh_ensemble(), str(directory), policy=ImmediatePolicy(), backend=FailingOnce()
        )

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        """The history's directory and journal lines, its end state, and
        how many sidecar steps it took."""
        directory = tmp_path_factory.mktemp("history") / "svc"
        with pytest.MonkeyPatch.context() as monkeypatch:
            steps = SidecarCrash(monkeypatch)
            with self.fresh_service(directory) as service:
                self.serve(service, self.SCRIPT)
                end = (
                    service.states(),
                    service.ensemble.deleted_indices,
                    shard_facts(service.ensemble),
                )
        with open(str(directory / "journal.jsonl"), "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        return directory, lines, end, steps.steps

    def recover_and_retry(self, directory, end, context):
        round_index = len(self.SCRIPT)
        recovered = UnlearningService.recover(
            str(directory),
            model_factory=FACTORY,
            dataset=DATASET,
            policy=ImmediatePolicy(),
            round_index=round_index,
        )
        with recovered:
            recovered.tick(round_index)
            recovered.drain(round_index)
            self.serve(recovered, self.SCRIPT)  # clients retry by id
            got = (
                recovered.states(),
                recovered.ensemble.deleted_indices,
                shard_facts(recovered.ensemble),
            )
        assert got == end, context

    def cut_after(self, uninterrupted, tmp_path, cuts, edit=None):
        """Recover from the journal cut after each record in ``cuts``;
        ``edit`` sees each crashed directory first."""
        source, lines, end, _ = uninterrupted
        for cut in cuts:
            crashed = tmp_path / f"cut{cut:02d}"
            shutil.copytree(str(source), str(crashed))
            with open(str(crashed / "journal.jsonl"), "wb") as handle:
                handle.write(b"".join(lines[:cut]))
            if edit is not None:
                edit(crashed)
            self.recover_and_retry(crashed, end, f"crash after record {cut} of {len(lines)}")

    def test_the_uninterrupted_service_is_the_counterfactual_fit(self, uninterrupted):
        _, _, (_, deleted, facts), _ = uninterrupted
        skeleton = SisaEnsemble(FACTORY, DATASET, SISA, seed=5)
        skeleton._deleted = set(deleted)
        assert facts == shard_facts(counterfactual_fit(skeleton, 5))

    def test_recovery_converges_from_every_sidecar_step(self, uninterrupted, tmp_path):
        *_, end, steps = uninterrupted
        # Per window: each checkpoint file, the temp directory, the rename
        # and windows/; and once, windows/ being created.
        assert steps > 4 * 3
        for at in range(steps):
            crashed = tmp_path / f"step{at:02d}"
            with pytest.MonkeyPatch.context() as monkeypatch:
                SidecarCrash(monkeypatch, at)
                with self.fresh_service(crashed) as service, pytest.raises(Crash):
                    self.serve(service, self.SCRIPT)
            # The window that died is journaled as retraining, not certified.
            assert journal_events(crashed)[-1] == "retraining"
            self.recover_and_retry(crashed, end, f"crash at sidecar step {at}")


class TestCrashAtEveryBoundary(CrashedHistories):
    """Generated crash points: the process dies after *each* journal
    record of a five-request history — records inside one fsync group
    too, since a crash mid-write can keep any prefix of a group's lines
    — and at each step of every sidecar write (after each file, before
    the rename, before ``windows/`` is synced)."""

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

    def test_the_history_certifies_everything(self, uninterrupted):
        directory, lines, (states, _, _), _ = uninterrupted
        assert set(states.values()) == {RequestState.CERTIFIED}
        events = journal_events(directory)
        assert "noop" in events and len(events) == len(lines) > 20

    @pytest.mark.parametrize("keep_later_sidecars", [True, False])
    def test_recovery_converges_from_every_prefix(
        self, uninterrupted, tmp_path, keep_later_sidecars
    ):
        def drop_later_sidecars(crashed):
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

        self.cut_after(
            uninterrupted,
            tmp_path,
            range(len(uninterrupted[1]) + 1),
            None if keep_later_sidecars else drop_later_sidecars,
        )


class TestWalkBackAfterAFailedWindow(CrashedHistories):
    """A window whose chains failed drops its shard's slices from its
    first affected one on (and stays deleted); the next window on that
    shard walks back to the dropped slice, and its sidecar starts there.
    A later window on the shard rewrites only its own slices, so the
    shard recovers from two sidecars.  Recovery equals the uninterrupted
    service from every journal record after the failure and every
    sidecar step."""

    # Shard 0 holds 4 in slice 0 and 0, 6 in slice 1; 3 is shard 2
    # slice 0 and 13 shard 1 slice 0.  ``f1``'s window fails.
    SCRIPT = [
        (0, "f1", [4]),
        (1, "w1", [0]),
        (2, "w2", [6, 3]),
        (3, "w3", [13]),
    ]
    FAILS = ("f1",)

    def test_the_next_window_starts_at_the_walked_back_slice(self, uninterrupted):
        directory, _, (states, deleted, _), _ = uninterrupted
        assert states == {
            "f1": RequestState.FAILED,
            "w1": RequestState.CERTIFIED,
            "w2": RequestState.CERTIFIED,
            "w3": RequestState.CERTIFIED,
        }
        assert deleted == {4, 0, 6, 3, 13}
        records = replay_journal(str(directory / "journal.jsonl"))
        slices = [r["slices"] for r in records if r["event"] == "retraining"]
        assert slices == [{"0": 0}, {"0": 0}, {"0": 1, "2": 0}, {"1": 0}]
        windows = directory / "windows"
        assert sorted(os.listdir(str(windows))) == ["000001", "000002", "000003"]
        assert sorted(os.listdir(str(windows / "000001"))) == [
            "shard0_slice0.ckpt",
            "shard0_slice1.ckpt",
        ]
        assert sorted(os.listdir(str(windows / "000002"))) == [
            "shard0_slice1.ckpt",
            "shard2_slice0.ckpt",
            "shard2_slice1.ckpt",
        ]

    def test_recovery_converges_from_every_record_after_the_failure(
        self, uninterrupted, tmp_path
    ):
        directory, lines, _, _ = uninterrupted
        failed = journal_events(directory).index("window_failed") + 1
        self.cut_after(uninterrupted, tmp_path, range(failed, len(lines) + 1))


# A generated request stream for the durability order: mostly fresh
# requests over a small index pool (so re-requests of forgotten samples
# come up as ``noop`` windows), some repeated ids and some rejected.
STREAM = st.lists(
    st.one_of(
        st.tuples(st.just("fresh"), st.lists(st.integers(0, 11), min_size=1, max_size=3)),
        st.tuples(st.just("repeat"), st.integers(0, 20)),
        st.tuples(st.just("rejected"), st.just([len(DATASET)])),
    ),
    min_size=1,
    max_size=8,
)


class TestDurabilityOrder:
    """Over a generated request stream, with every ``os.fsync``,
    ``os.rename``, ``Journal.append`` and ``backend.submit`` logged in
    order: each window's sidecar files and directory are durable before
    its ``certified`` record; no chain is submitted before its
    ``scheduled`` + ``retraining`` group is durable; a sidecar holds the
    checkpoints its plan's slices name, and nothing else; ``submit`` returns
    only after its group is fsynced; and a request costs three journal
    fsyncs when it opens a window (five before records were grouped),
    two when it certifies as a ``noop`` and one when it is a repeat or
    rejected."""

    FSYNCS = {"window": 3, "noop": 2, "repeat": 1, "rejected": 1}

    @generated(15)
    @given(stream=STREAM)
    def test_sidecars_and_groups_are_durable_in_order(self, stream):
        with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
            directory = os.path.realpath(root)
            journal = os.path.join(directory, "journal.jsonl")
            log = []
            service = UnlearningService(
                fresh_ensemble(), directory, policy=ImmediatePolicy(), backend=SeamBackend(log)
            )
            log_durability(mp, log)
            real_append = Journal.append

            def append(journal_self, records):
                group = [records] if isinstance(records, dict) else list(records)
                log.append(("append", [record["event"] for record in group]))
                return real_append(journal_self, records)

            mp.setattr(Journal, "append", append)
            with service:
                for round_index, (kind, payload) in enumerate(stream):
                    start = len(log)
                    outcome = self.serve_one(service, round_index, kind, payload)
                    fsyncs = log[start:].count(("fsync", journal))
                    assert fsyncs == self.FSYNCS[outcome], (kind, payload)
            mp.undo()
            self.check_order(log, directory, journal, service._windows)

    @staticmethod
    def serve_one(service, round_index, kind, payload):
        """Submit, tick and drain one request; returns what it cost."""
        known = sorted(service.requests)
        if kind == "repeat" and known:
            service.submit(0, [0], round_index, request_id=known[payload % len(known)])
            return "repeat"
        if kind == "rejected":
            with pytest.raises(ValueError):
                service.submit(0, payload, round_index, request_id=f"q{round_index}")
            service.backend.log.append(("returned", f"q{round_index}"))
            return "rejected"
        indices = payload if kind == "fresh" else [0]
        windows = len(service._windows)
        service.submit(0, indices, round_index, request_id=f"q{round_index}")
        service.backend.log.append(("returned", f"q{round_index}"))
        service.tick(round_index)
        service.drain(round_index)
        return "window" if len(service._windows) > windows else "noop"

    @staticmethod
    def check_order(log, directory, journal, plans):
        windows = os.path.join(directory, "windows")
        for position, entry in enumerate(log):
            if entry[0] == "returned":
                # The request's group is the last append, and it is synced.
                appends = [i for i in range(position) if log[i][0] == "append"]
                assert log[appends[-1]][1][0] == "received"
                assert ("fsync", journal) in log[appends[-1] : position]
            elif entry[0] == "submit":
                appends = [i for i in range(position) if log[i][0] == "append"]
                assert log[appends[-1]][1] == ["scheduled", "retraining"]
                assert ("fsync", journal) in log[appends[-1] : position]
            elif entry[0] == "append" and entry[1] == ["certified"]:
                renames = [i for i in range(position) if log[i][0] == "rename"]
                _, tmp, final = log[renames[-1]]
                assert final.startswith(windows) and tmp == final + ".tmp"
                synced = {e[1] for e in log[: renames[-1]] if e[0] == "fsync"}
                names = sorted(os.listdir(final))
                assert names == sidecar_files(
                    plans[int(os.path.basename(final))], SISA.num_slices
                )
                files = {os.path.join(tmp, name) for name in names}
                assert files and files | {tmp} <= synced
                assert ("fsync", windows) in log[renames[-1] : position]
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
    @generated(50)
    @given(
        rounds=st.lists(st.one_of(st.none(), st.integers(0, 50)), max_size=12),
        q=st.floats(0, 100),
    )
    def test_sla_meter_reads_only_certified_requests(self, rounds, q):
        requests = [
            DeletionRequest(
                request_id=f"r{i}",
                client_id=0,
                indices=[i],
                submitted_round=3,
                certified_round=None if waited is None else 3 + waited,
            )
            for i, waited in enumerate(rounds)
        ]
        certified = [waited for waited in rounds if waited is not None]
        meter = SlaMeter(requests)
        assert meter.num_certified == len(certified)
        if certified:
            assert meter.percentile_rounds(q) == float(np.percentile(certified, q))
        else:
            with pytest.raises(ValueError, match="no certified"):
                meter.percentile_rounds(q)

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
        meter = SlaMeter(requests)
        assert meter.num_certified == 4
        assert meter.percentile_rounds(50) == 2.5
        assert meter.percentile_rounds(100) == 4.0
        assert all(r.time_to_forget_seconds is None for r in requests)
