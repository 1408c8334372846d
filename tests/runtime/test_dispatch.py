"""The dispatch core without processes: broadcast mirror, worker step.

A loopback transport hands every dispatched item straight to
``serve_task`` in this process (through a pickle round trip, as a pipe
or socket would), so the parent-side mirror and the worker-side cache
can be watched — and knocked out of step — directly.
"""

import pickle

import numpy as np

from repro.runtime.codec import BroadcastDelta, BroadcastFull, BroadcastRef
from repro.runtime.dispatch import BroadcastCache, Dispatcher, serve_task


class _EchoTask:
    """Returns the model state it was handed."""

    def __init__(self, task_id, model_state=None):
        self.task_id = task_id
        self.model_state = model_state

    def run(self):
        return self.model_state


class _LambdaResultTask(_EchoTask):
    def run(self):
        return lambda: None  # cannot be pickled


class _PicklingChannel:
    """A send callable that pickles like a real transport would."""

    def __init__(self):
        self.replies = []

    def __call__(self, reply):
        pickle.dumps(reply)
        self.replies.append(reply)


class _Loopback(Dispatcher):
    """One in-process receiver; records the wire form of every send."""

    def __init__(self):
        super().__init__(lease_timeout=float("inf"), max_task_retries=1)
        self.mirror = BroadcastCache()
        self.worker_cache = BroadcastCache()
        self.wires = []
        self.inbox = []

    def _send(self, item):
        data = pickle.dumps(item)
        _, _, broadcast = item
        self.wires.append(None if broadcast is None else broadcast[1])
        serve_task(self.worker_cache, pickle.loads(data), self.inbox.append)
        return len(data)

    def _feed_idle(self):
        while self.scheduler.has_pending:
            self._dispatch(self.scheduler.next_task("loopback"), self.mirror, self._send)
            # Like a real channel, the reply lands after the send returns.
            for reply in self.inbox:
                self._complete(self.mirror, reply, len(pickle.dumps(reply)))
            self.inbox.clear()

    def pump(self, timeout):
        self._feed_idle()

    def run(self, tasks):
        return self.drain(self.submit(tasks))


def make_state(seed):
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(size=(32, 8)), "b": rng.normal(size=8)}


def nearby(state, step):
    return {key: value + step * 1e-9 for key, value in state.items()}


def assert_states_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


class TestBroadcastRoundTrip:
    def test_full_then_ref_then_delta_decode_exactly(self):
        core = _Loopback()
        first, second = make_state(0), nearby(make_state(0), 1)
        tasks = [_EchoTask(0, first), _EchoTask(1, first), _EchoTask(2, second)]
        ticket = core.submit(tasks)
        results = core.drain(ticket)
        assert [type(wire) for wire in core.wires] == [
            BroadcastFull,
            BroadcastRef,
            BroadcastDelta,
        ]
        for result, sent in zip(results, (first, first, second)):
            assert_states_equal(result, sent)
        stats = core.pop_ticket_stats(ticket)
        assert (stats.broadcast_full, stats.broadcast_ref, stats.broadcast_delta) == (1, 1, 1)
        assert stats.bytes_down > 0 and stats.bytes_up > 0
        # Mirror and worker cache agree on what the worker now holds.
        assert core.mirror.version == core.worker_cache.version is not None

    def test_task_without_a_model_state_skips_the_cache(self):
        core = _Loopback()
        assert core.run([_EchoTask(0)]) == [None]
        assert core.wires == [None]
        assert core.mirror.version is None

    def test_caller_task_is_not_stripped(self):
        core = _Loopback()
        state = make_state(1)
        task = _EchoTask(0, state)
        core.run([task])
        assert task.model_state is state  # only the pickled copy lost it


class TestEchoRepair:
    def test_echoed_mismatch_makes_the_next_send_full(self):
        core = _Loopback()
        state = make_state(2)
        core.run([_EchoTask(0, state)])
        # The worker loses its cache behind the parent's back.
        core.worker_cache.version = core.worker_cache.state = None
        ticket = core.submit([_EchoTask(1, state)])
        assert core.poll(ticket)
        assert isinstance(core.wires[-1], BroadcastRef)  # parent believed the mirror
        batch = core.scheduler.finish_batch(ticket)
        assert "broadcast ref" in batch.errors[0]  # the worker could not resolve it
        assert core.mirror.version is None  # ...and its echo reset the mirror
        results = core.run([_EchoTask(2, state)])
        assert isinstance(core.wires[-1], BroadcastFull)
        assert_states_equal(results[0], state)


class TestDeltaMemo:
    def test_memo_never_exceeds_its_bound(self):
        core = _Loopback()
        base = make_state(3)
        for step in range(40):
            core.run([_EchoTask(step, nearby(base, step))])
            assert len(core._delta_memo) <= 8
        assert sum(isinstance(wire, BroadcastDelta) for wire in core.wires) == 39


class TestWorkerStep:
    def test_unpicklable_result_is_reported_as_the_tasks_failure(self):
        channel = _PicklingChannel()
        item = (7, pickle.dumps(_LambdaResultTask(0)), None)
        serve_task(BroadcastCache(), item, channel)
        ((lease_id, error, payload, echoed),) = channel.replies
        assert lease_id == 7 and payload is None and echoed is None
        assert "pickle" in error.lower()

    def test_bad_task_bytes_still_apply_the_broadcast_first(self):
        cache = BroadcastCache()
        state = make_state(4)
        replies = []
        item = (3, b"not a pickle", ("model_state", BroadcastFull(version="v1", state=state)))
        serve_task(cache, item, replies.append)
        ((lease_id, error, _, echoed),) = replies
        assert lease_id == 3 and error is not None
        assert echoed == "v1" == cache.version  # cache stays in lockstep
