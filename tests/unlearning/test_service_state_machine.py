"""The deletion service as a state machine over generated request scripts.

A hypothesis rule-based machine drives a serial-backend
:class:`~repro.unlearning.UnlearningService` with fresh, bad and repeated
submissions, scheduling beats, drains, compactions and restarts, under
one of the three flush policies.  After every step the lifecycle only
moves forward, a request is one object wherever it is held, and every
certified index is really gone.  Every restart must equal the
sidecar-replaying reference recovery (``tests/reference_recovery.py``) bit
for bit, with each certified window's plan naming what its sidecar holds.
At the end a recovered service and a bare SISA twin that replays the
journaled windows agree bit for bit.
"""

import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.unlearning import (
    BatchSizePolicy,
    ImmediatePolicy,
    PeriodicPolicy,
    RequestState,
    UnlearningService,
    replay_journal,
)

from ..conftest import generated
from ..reference_recovery import ReferenceRecovery
from .test_recovery import assert_plans_match_sidecars, assert_same_recovery
from .test_service import (
    DATASET,
    FACTORY,
    assert_states_equal,
    fresh_ensemble,
    shard_states,
)

POLICIES = {
    "immediate": ImmediatePolicy,
    "batch2": lambda: BatchSizePolicy(2),
    "periodic3": lambda: PeriodicPolicy(3),
}

# How far along the lifecycle each state is; the two terminal states
# share the last rank but never turn into each other.
RANK = {
    RequestState.RECEIVED: 0,
    RequestState.VALIDATED: 1,
    RequestState.SCHEDULED: 2,
    RequestState.RETRAINING: 3,
    RequestState.CERTIFIED: 4,
    RequestState.FAILED: 4,
}

# In-range requests draw from a small pool, so re-requests of forgotten
# indices (``noop`` windows) are common and no shard can be emptied.
INDICES = st.lists(st.integers(0, 7), min_size=1, max_size=3)
# Mostly well-formed requests; each bad kind a fifth of the time.
KINDS = st.sampled_from(["valid", "valid", "valid", "empty", "out_of_range"])


def certified_windows(directory):
    """Each certified window's journaled index set, in certification order
    (read through a compaction snapshot when there is one)."""
    plans, order = {}, []
    for record in replay_journal(os.path.join(directory, "journal.jsonl")):
        event = record["event"]
        if event == "snapshot":
            plans = {int(k): v["indices"] for k, v in record["windows"].items()}
            order = list(record["certified_order"])
        elif event == "scheduled":
            plans[record["window"]] = record["indices"]
        elif event == "certified":
            order.append(record["window"])
    return [plans[window_id] for window_id in order]


class ServiceMachine(RuleBasedStateMachine):
    @initialize(
        policy=st.sampled_from(sorted(POLICIES)),
        script=st.lists(INDICES, min_size=1, max_size=4),
    )
    def start(self, policy, script):
        """A fresh service that opens with a queue, so every generated
        run has work to schedule."""
        self.policy = policy
        self.directory = tempfile.mkdtemp(prefix="service-machine-")
        self.service = UnlearningService(
            fresh_ensemble(), self.directory, policy=POLICIES[policy]()
        )
        self.round = 0
        self.issued = 0
        self.seen = {}  # request id -> last observed state
        for indices in script:
            self.submit_fresh("valid", indices)

    # -- rules ----------------------------------------------------------
    @rule(kind=KINDS, indices=INDICES)
    def submit_fresh(self, kind, indices):
        request_id = f"s{self.issued}"
        self.issued += 1
        if kind == "valid":
            request = self.service.submit(0, indices, self.round, request_id=request_id)
            assert request is self.service.requests[request_id]
            assert request.state == RequestState.VALIDATED
            assert any(queued is request for queued in self.service.manager.pending)
            return
        bad = [] if kind == "empty" else [len(DATASET)]
        with pytest.raises(ValueError):
            self.service.submit(0, bad, self.round, request_id=request_id)
        assert self.service.requests[request_id].state == RequestState.FAILED

    @rule(data=st.data())
    def resubmit(self, data):
        request_id = data.draw(st.sampled_from(sorted(self.service.requests)))
        duplicates = self.service.duplicates
        again = self.service.submit(0, [0], self.round, request_id=request_id)
        assert again is self.service.requests[request_id]
        assert self.service.duplicates == duplicates + 1

    @rule()
    def tick(self):
        window = self.service.tick(self.round)["submitted"]
        if window is not None:
            # The returned window is the manager's record, not a copy.
            assert window is self.service.manager.executed_batches[-1]
            for request in window.requests:
                assert request.window_id == window.window_id
        self.round += 1

    @rule()
    def drain(self):
        self.service.drain(self.round)

    @rule()
    def compact(self):
        self.service.compact()

    @rule()
    def restart(self):
        """Recover, and check the result against the sidecar-replaying
        reference recovering a copy of the same directory."""
        self.service.close()
        copy = tempfile.mkdtemp(prefix="service-machine-reference-")
        shutil.copytree(self.directory, copy, dirs_exist_ok=True)
        self.service = UnlearningService.recover(
            self.directory,
            FACTORY,
            DATASET,
            policy=POLICIES[self.policy](),
            round_index=self.round,
        )
        try:
            with ReferenceRecovery.recover(
                copy, FACTORY, DATASET, policy=POLICIES[self.policy](), round_index=self.round
            ) as reference:
                assert_same_recovery(self.service, reference)
            assert_plans_match_sidecars(self.service)
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    # -- invariants -----------------------------------------------------
    @invariant()
    def lifecycle_moves_forward(self):
        for request_id, request in self.service.requests.items():
            before = self.seen.get(request_id)
            if before is not None:
                assert RANK[request.state] >= RANK[before], request_id
                if RANK[before] == RANK[RequestState.CERTIFIED]:
                    assert request.state == before, request_id
            self.seen[request_id] = request.state

    @invariant()
    def certified_is_never_failed(self):
        for request in self.service.requests.values():
            if request.state == RequestState.CERTIFIED:
                assert request.failure_reason is None
            if request.state == RequestState.FAILED:
                assert request.certified_round is None

    @invariant()
    def certified_indices_are_deleted(self):
        deleted = self.service.ensemble.deleted_indices
        for request in self.service.requests.values():
            if request.state == RequestState.CERTIFIED:
                assert set(request.indices.tolist()) <= deleted

    @invariant()
    def sla_reads_the_requests(self):
        certified = sum(
            request.state == RequestState.CERTIFIED
            for request in self.service.requests.values()
        )
        assert self.service.sla.num_certified == certified

    @invariant()
    def queue_holds_the_service_records(self):
        for request in self.service.manager.pending:
            assert self.service.requests[request.request_id] is request

    # -- the end state ----------------------------------------------------
    def teardown(self):
        try:
            service = self.service
            service.manager.policy = ImmediatePolicy()
            for _ in range(3):
                if not service.manager.num_pending:
                    break
                service.tick(self.round)
                service.drain(self.round)
            assert service.manager.num_pending == 0
            states, shards = service.states(), shard_states(service.ensemble)
            assert set(states.values()) <= {RequestState.CERTIFIED, RequestState.FAILED}
            service.close()
            recovered = UnlearningService.recover(
                self.directory, FACTORY, DATASET, policy=ImmediatePolicy()
            )
            with recovered:
                assert recovered.states() == states
                assert_states_equal(shard_states(recovered.ensemble), shards)
            twin = fresh_ensemble()
            for indices in certified_windows(self.directory):
                twin.delete(indices)
            assert_states_equal(shard_states(twin), shards)
        finally:
            self.service.close()
            shutil.rmtree(self.directory, ignore_errors=True)


TestServiceStateMachine = ServiceMachine.TestCase
TestServiceStateMachine.settings = settings(generated(15), stateful_step_count=20)
