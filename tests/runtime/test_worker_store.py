"""The content-addressed worker store: every array a task carries crosses
to a receiver once.

The dispatcher lifts a task's state dicts and by-value datasets out of
its pickle and ships each as a ref, a delta or a full send against the
receiver's store, which the parent mirrors.  Over generated task
sequences — repeated, new and evicted versions of states and datasets —
the worker's store equals the parent's mirror after every reply, a
version goes in full at most once per receiver between evictions, and
results are bit-identical to serial: on an in-process loopback (where
both stores are compared entry for entry), on ``pool:2`` and on the
loopback cluster.  Then the same through a Goldfish request on
``pool:2``: the teacher crosses once per worker, and a second request
on the same scenario ships neither the teacher nor any dataset in full.
"""

import multiprocessing
import pickle
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data.dataset import ArrayDataset
from repro.experiments import SMOKE, runner
from repro.experiments.common import backdoor_spec
from repro.runtime import PoolBackend, get_backend
from repro.runtime.codec import BroadcastDelta, BroadcastFull, BroadcastRef, dataset_version
from repro.runtime.dispatch import _STORE_KEEP, Dispatcher, WorkerStore, serve_task
from repro.runtime.pool import _WorkerSlot

from ..conftest import generated, make_blobs

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@dataclass
class _Carrier:
    """Returns every array it was handed, so a result shows exactly what
    the worker refilled."""

    task_id: int
    dataset: Optional[ArrayDataset] = None
    model_state: Optional[dict] = None
    teacher_state: Optional[dict] = None

    def run(self):
        data = self.dataset
        return {
            "model": self.model_state,
            "teacher": self.teacher_state,
            "data": None if data is None
            else (data.images, data.labels, data.num_classes, data.name),
        }


def _state(seed, shape):
    rng = np.random.default_rng(seed)
    return {"w": rng.normal(size=shape), "b": rng.normal(size=shape[-1])}


# Four nearby states of one structure (deltas between them are small),
# two of another, and five datasets: eleven payloads, more than one
# store holds, so long sequences evict.
_BASE = _state(0, (16, 4))
STATES = [{k: v + step * 1e-9 for k, v in _BASE.items()} for step in range(4)] + [
    _state(seed, (5, 3)) for seed in (1, 2)
]
DATASETS = [
    make_blobs(num_samples=6 + index % 3, shape=(1, 2, 2), seed=index, name=f"d{index}")
    for index in range(5)
]

_maybe_state = st.none() | st.integers(0, len(STATES) - 1)
_carrier = st.tuples(
    st.none() | st.integers(0, len(DATASETS) - 1), _maybe_state, _maybe_state
)
_sequences = st.lists(st.lists(_carrier, min_size=1, max_size=6), min_size=1, max_size=4)


def _batch(spec, start):
    return [
        _Carrier(
            task_id=start + index,
            dataset=None if data is None else DATASETS[data],
            model_state=None if model is None else STATES[model],
            teacher_state=None if teacher is None else STATES[teacher],
        )
        for index, (data, model, teacher) in enumerate(spec)
    ]


def _assert_results_equal(got, want):
    assert got.keys() == want.keys()
    for key in ("model", "teacher"):
        assert (got[key] is None) == (want[key] is None)
        if want[key] is not None:
            assert got[key].keys() == want[key].keys()
            for name in want[key]:
                np.testing.assert_array_equal(got[key][name], want[key][name])
    assert (got["data"] is None) == (want["data"] is None)
    if want["data"] is not None:
        np.testing.assert_array_equal(got["data"][0], want["data"][0])
        np.testing.assert_array_equal(got["data"][1], want["data"][1])
        assert got["data"][2:] == want["data"][2:]


class _Ledger:
    """Watches dispatchers: every item's sends against a reference model
    of what each receiver holds (least recently used evicted first), and
    every reply's echo against the mirror."""

    def __init__(self):
        self.violations = []
        self.replies = 0
        self.models = {}  # mirror -> OrderedDict of the versions it holds

    def dispatch(self, original):
        ledger = self

        def wrapped(self, lease, mirror, send):
            model = ledger.models.setdefault(mirror, OrderedDict())

            def spy(item):
                for field, wire in item[2]:
                    held = wire.version in model
                    if isinstance(wire, BroadcastRef) != held:
                        ledger.violations.append(
                            f"{field} {wire.version} sent {type(wire).__name__}, held={held}"
                        )
                    if held:
                        model.move_to_end(wire.version)
                    else:
                        model[wire.version] = None
                        if len(model) > _STORE_KEEP:
                            model.popitem(last=False)
                if list(model) != list(mirror.entries):
                    ledger.violations.append("mirror differs from the reference model")
                return send(item)

            return original(self, lease, mirror, spy)

        return wrapped

    def complete(self, original):
        ledger = self

        def wrapped(self, mirror, reply, nbytes):
            ledger.replies += 1
            if reply[3] != mirror.echo():
                ledger.violations.append(f"echo {reply[3]} vs mirror {mirror.echo()}")
            return original(self, mirror, reply, nbytes)

        return wrapped

    def watching(self):
        return mock.patch.multiple(
            Dispatcher,
            _dispatch=self.dispatch(Dispatcher._dispatch),
            _complete=self.complete(Dispatcher._complete),
        )


class _Loopback(Dispatcher):
    """One in-process receiver whose store can be compared with the
    mirror after every reply."""

    def __init__(self):
        super().__init__(lease_timeout=float("inf"), max_task_retries=1)
        self.mirror = WorkerStore()
        self.store = WorkerStore()
        self.inbox = []

    def _send(self, item):
        data = pickle.dumps(item)
        serve_task(self.store, pickle.loads(data), self.inbox.append)
        return len(data)

    def _feed_idle(self):
        while self.scheduler.has_pending:
            self._dispatch(self.scheduler.next_task("loopback"), self.mirror, self._send)
            for reply in self.inbox:
                self._complete(self.mirror, reply, 0)
                assert_stores_equal(self.store, self.mirror)
            self.inbox.clear()

    def pump(self, timeout):
        self._feed_idle()


class _Pipelined(_Loopback):
    """Sends every pending item before completing any reply."""

    def _feed_idle(self):
        while self.scheduler.has_pending:
            self._dispatch(self.scheduler.next_task("loopback"), self.mirror, self._send)
        for reply in self.inbox:
            self._complete(self.mirror, reply, 0)
        self.inbox.clear()


def assert_stores_equal(store, mirror):
    assert list(store.entries) == list(mirror.entries)
    assert store.items == mirror.items
    for version, (_, payload) in mirror.entries.items():
        held = store.entries[version][1]
        if isinstance(payload, dict):
            assert held.keys() == payload.keys()
            for key in payload:
                np.testing.assert_array_equal(held[key], payload[key])
        else:
            assert dataset_version(held) == dataset_version(payload) == version


class TestStoreOnTheLoopback:
    @generated(60)
    @given(_sequences)
    def test_store_equals_mirror_after_every_reply(self, sequence):
        core = _Loopback()
        ledger = _Ledger()
        with ledger.watching():
            start = 0
            for spec in sequence:
                tasks = _batch(spec, start)
                start += len(tasks)
                results = core.drain(core.submit(tasks))
                for got, task in zip(results, tasks):
                    _assert_results_equal(got, task.run())
        assert ledger.violations == []
        assert ledger.replies == start

    def test_the_least_recently_used_entry_is_evicted(self):
        core = _Loopback()
        datasets = [make_blobs(num_samples=3, shape=(1, 2, 2), seed=s) for s in range(12)]
        for index, dataset in enumerate(datasets):
            core.drain(core.submit([_Carrier(index, dataset=dataset)]))
        assert list(core.mirror.entries) == [dataset_version(d) for d in datasets[-_STORE_KEEP:]]
        # A held version is a ref and moves to the newest end; an
        # evicted one ships in full again.
        sent = []
        send = core._send
        core._send = lambda item: sent.append(item[2]) or send(item)
        core.drain(core.submit([_Carrier(20, dataset=datasets[-_STORE_KEEP])]))
        core.drain(core.submit([_Carrier(21, dataset=datasets[0])]))
        assert [type(wire) for ((_, wire),) in sent] == [BroadcastRef, BroadcastFull]
        assert list(core.mirror.entries)[-2:] == [
            dataset_version(datasets[-_STORE_KEEP]), dataset_version(datasets[0])
        ]
        assert len(core.mirror.entries) == _STORE_KEEP

    def test_a_reply_to_an_earlier_item_is_not_judged(self):
        # Both items are in flight before the first reply, as on an agent
        # of capacity 2: that reply echoes a store one item behind the
        # mirror, which is no divergence, so nothing is emptied.
        core = _Pipelined()
        core.drain(core.submit([_Carrier(0, dataset=DATASETS[0]), _Carrier(1, dataset=DATASETS[1])]))
        assert len(core.mirror.entries) == 2
        assert_stores_equal(core.store, core.mirror)

    def test_a_state_deltas_against_its_own_fields_newest(self):
        core = _Loopback()
        sent = []
        send = core._send
        core._send = lambda item: sent.append(item[2]) or send(item)
        core.drain(core.submit([_Carrier(0, model_state=STATES[0], teacher_state=STATES[4])]))
        # One task, two fields: the model state deltas against the last
        # model state, not against the newer teacher of another shape.
        core.drain(core.submit([_Carrier(1, model_state=STATES[1], teacher_state=STATES[4])]))
        first, second = sent
        assert [type(wire) for _, wire in first] == [BroadcastFull, BroadcastFull]
        (_, model), (_, teacher) = second
        assert isinstance(model, BroadcastDelta)
        assert model.base_version == first[0][1].version
        assert isinstance(teacher, BroadcastRef)

    def test_a_shared_dataset_stays_in_the_pickle_unhashed(self):
        core = _Loopback()
        sent = []
        send = core._send
        core._send = lambda item: sent.append(item) or send(item)
        shared = DATASETS[0].share()
        try:
            with mock.patch("repro.runtime.dispatch.dataset_version") as hashed:
                core.drain(core.submit([_Carrier(0, dataset=shared)]))
            hashed.assert_not_called()
        finally:
            shared.close()
        ((_, task_bytes, sends),) = sent
        assert sends == () and not core.mirror.entries
        assert len(task_bytes) < 1024  # the handle, not the arrays


@pytest.mark.skipif(not HAS_FORK, reason="pool workers and local cluster agents start via fork")
class TestStoreOverTransports:
    @pytest.mark.parametrize("spec", ["pool:2", "cluster:2"])
    def test_store_equals_mirror_after_every_reply(self, spec):
        backend = get_backend(spec)
        backend.close()  # every store starts empty
        backend.run_tasks([_Carrier(-1), _Carrier(-2)])  # workers up: nothing runs inline
        ledger = _Ledger()
        counter = iter(range(10**6))
        served = []

        @settings(
            generated(12),
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(_sequences)
        def property_(sequence):
            for spec_ in sequence:
                tasks = _batch(spec_, next(counter) * 10)
                results = backend.run_tasks(tasks)
                served.extend(tasks)
                for got, task in zip(results, tasks):
                    _assert_results_equal(got, task.run())

        try:
            with ledger.watching():
                property_()
        finally:
            backend.close()
        assert ledger.violations == []
        assert ledger.replies == len(served)  # every echo was checked


def _goldfish_run(pool, prepared, scale):
    """One Goldfish request on ``pool``: per-round downlink bytes and the
    full sends per field."""
    sent = []
    send = _WorkerSlot.send

    def spy(slot, message):
        if message is not None:
            sent.append((id(slot), message[2]))
        return send(slot, message)

    rounds = []

    def round_callback(round_index, sim):
        rounds.append(pool.transport_stats.bytes_down)

    start = pool.transport_stats.bytes_down
    with mock.patch.object(_WorkerSlot, "send", spy):
        runner.run_method(prepared, "ours", scale, backend=pool, round_callback=round_callback)
    downlink = [b - a for a, b in zip([start] + rounds, rounds)]
    fulls = [
        (slot, field, wire.version)
        for slot, sends in sent
        for field, wire in sends
        if isinstance(wire, BroadcastFull)
    ]
    return downlink, fulls


@pytest.mark.skipif(not HAS_FORK, reason="pool workers start via fork")
def test_goldfish_teacher_and_datasets_cross_to_each_worker_once():
    # Two clients on two workers: both tasks of a round are dispatched at
    # submit, so each client lands on the same worker in every round.
    scale = SMOKE.with_overrides(
        train_size=120, test_size=60, pretrain_rounds=1, local_epochs=1,
        unlearn_rounds=2, batch_size=20, num_clients=2,
    )
    prepared = runner.prepare(backdoor_spec("mnist", 0.06), scale, seed=3)
    pool = PoolBackend(max_workers=2)
    try:
        first, first_fulls = _goldfish_run(pool, prepared, scale)
        second, second_fulls = _goldfish_run(pool, prepared, scale)
    finally:
        pool.close()
    state_bytes = sum(
        value.nbytes for value in prepared.scenario.sim.server.global_state.values()
    )
    # The first request: the teacher crosses in full once per worker, and
    # each dataset once, in round 0.
    teacher_fulls = [entry for entry in first_fulls if entry[1] == "teacher_state"]
    assert len(teacher_fulls) == 2 and len({slot for slot, _, _ in teacher_fulls}) == 2
    assert len([entry for entry in first_fulls if entry[1] == "dataset"]) == 2
    # The second: round 0 costs at most round 1 plus one teacher per
    # worker, and neither the teacher nor any dataset ships in full.
    assert second[0] <= second[1] + 2 * state_bytes
    assert {field for _, field, _ in second_fulls} <= {"model_state"}
    assert second[0] < first[0]
