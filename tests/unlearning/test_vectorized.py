"""Vectorized unlearning protocol rounds and SISA chains.

B1's retraining rounds, B3's normal clients and the SISA per-shard
slice chains route through the same :class:`VectorizedCohort` substrate
as federated training rounds; the Goldfish, B2 and B3 client tasks run
one client each.  The contract is identical: opting in is
**bit-for-bit** invisible in every model, checkpoint, and RNG stream;
anything the substrate cannot fuse falls back per client with a
recorded reason.
"""

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.federated import FederatedSimulation, FedAvgAggregator
from repro.nn.models import MLP
from repro.runtime import SerialBackend
from repro.training import TrainConfig
from repro.unlearning import (
    GoldfishConfig,
    GoldfishLossConfig,
    IncompetentTeacherConfig,
    SisaConfig,
    SisaEnsemble,
    federated_goldfish,
    federated_incompetent_teacher,
    federated_rapid_retrain,
    federated_retrain,
)

from ..conftest import make_blob_federation, make_blobs

CONFIG = TrainConfig(epochs=2, batch_size=10, learning_rate=0.15)
GOLDFISH = GoldfishConfig(loss=GoldfishLossConfig(), train=CONFIG)


def mlp_factory():  # module-level, so tasks pickle to pool workers
    return MLP(16, 3, np.random.default_rng(42))


def build_sim(vectorize, seed=0, deletions=((0, 5),), codec="raw"):
    clients, test = make_blob_federation(3, per_client=30, test_size=60,
                                         seed=seed)
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    sim = FederatedSimulation(
        mlp_factory, fed, FedAvgAggregator(), CONFIG, seed=seed,
        vectorize=vectorize, codec=codec,
    )
    sim.run(3)  # pretrain
    for client_index, count in deletions:
        sim.clients[client_index].request_deletion(np.arange(count))
    return sim


def assert_states_equal(a, b):
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


def assert_protocol_parity(protocol, deletions=((0, 5),)):
    ref_sim = build_sim(False, deletions=deletions)
    ref_out = protocol(ref_sim)
    vec_sim = build_sim(True, deletions=deletions)
    vec_out = protocol(vec_sim)
    assert_states_equal(ref_out.global_model.state_dict(),
                        vec_out.global_model.state_dict())
    for a, b in zip(ref_sim.clients, vec_sim.clients):
        assert a.rng.bit_generator.state == b.rng.bit_generator.state
    return vec_sim.vectorize_report()


def assert_runs_per_client(report, kind):
    """``kind``'s units ran one client each, with the reason recorded."""
    key = f"no vectorized implementation for {kind}"
    assert report["fallback_reasons"].get(key, 0) > 0


class TestProtocolParity:
    def test_goldfish_bit_identical_and_per_client(self):
        # Goldfish students run one client each (Algorithm 1), so a
        # vectorized simulation falls back for them, bit-identically.
        report = assert_protocol_parity(
            lambda s: federated_goldfish(s, GOLDFISH, num_rounds=2)
        )
        assert_runs_per_client(report, "_GoldfishClientTask")

    def test_goldfish_multi_deletion_cohort(self):
        # Unequal retain and forget sizes across the deleting clients.
        report = assert_protocol_parity(
            lambda s: federated_goldfish(s, GOLDFISH, num_rounds=2),
            deletions=((0, 5), (1, 7)),
        )
        assert_runs_per_client(report, "_GoldfishClientTask")

    def test_retrain_bit_identical(self):
        report = assert_protocol_parity(
            lambda s: federated_retrain(s, CONFIG, num_rounds=2)
        )
        assert report["rounds_vectorized"] > 0

    def test_rapid_retrain_bit_identical(self):
        # B2 carries per-client diagonal-FIM optimizer state, one client
        # per task, on a vectorized simulation too.
        report = assert_protocol_parity(
            lambda s: federated_rapid_retrain(s, CONFIG, num_rounds=2)
        )
        assert_runs_per_client(report, "_RapidClientTask")

    def test_incompetent_teacher_records_fallback(self):
        # B3's distillation task has no stacked implementation: those
        # units run per-client with the reason recorded (the deletion-free
        # clients in the same batch still fuse as plain train tasks), and
        # the rounds stay bit-identical either way.
        report = assert_protocol_parity(
            lambda s: federated_incompetent_teacher(
                s, IncompetentTeacherConfig(train=CONFIG), num_rounds=2
            )
        )
        assert_runs_per_client(report, "_IncompetentClientTask")


PROTOCOLS = {
    "goldfish": lambda sim, **kw: federated_goldfish(sim, GOLDFISH, 2, **kw),
    "b1": lambda sim, **kw: federated_retrain(sim, CONFIG, 2, **kw),
    "b2": lambda sim, **kw: federated_rapid_retrain(sim, CONFIG, 2, **kw),
    "b3": lambda sim, **kw: federated_incompetent_teacher(
        sim, IncompetentTeacherConfig(train=CONFIG), 2, **kw
    ),
}


class TestEveryProtocolOnTheSharedWirePath:
    """Every protocol's rounds run the simulation's round body, so the
    ``delta`` codec and the pool's broadcast cache apply to all four:
    serially, on two pool workers and vectorized, ``delta`` lands on the
    models, accuracies and client generators of a raw serial run, bit
    for bit."""

    @pytest.mark.parametrize("path", ["serial", "pool:2", "vectorize"])
    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_delta_bit_identical_to_raw(self, name, path):
        raw_sim = build_sim(False)
        raw_up = raw_sim.transport_report()["bytes_up"]
        raw = PROTOCOLS[name](raw_sim)
        raw_up = raw_sim.transport_report()["bytes_up"] - raw_up
        sim = build_sim(path == "vectorize", codec="delta")
        before = sim.transport_report()
        out = PROTOCOLS[name](sim, backend="pool:2" if path == "pool:2" else None)
        after = sim.transport_report()
        assert out.round_accuracies == raw.round_accuracies
        assert out.local_epochs_total == raw.local_epochs_total
        assert_states_equal(raw.global_model.state_dict(), out.global_model.state_dict())
        for a, b in zip(raw_sim.clients, sim.clients):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        # Under delta every client returns an encoded update, not its state.
        assert after["bytes_up"] - before["bytes_up"] < raw_up
        if path == "pool:2":
            cached = sum(
                after[key] - before[key] for key in ("broadcast_ref", "broadcast_delta")
            )
            assert cached > 0


def build_sisa(vectorize, seed=5):
    clients, _ = make_blob_federation(1, per_client=120, test_size=30, seed=3)
    config = SisaConfig(num_shards=3, num_slices=4, epochs_per_slice=1,
                        batch_size=10, learning_rate=0.1)
    ensemble = SisaEnsemble(
        lambda: MLP(16, 3, np.random.default_rng(42)),
        clients[0], config, seed=seed, vectorize=vectorize,
    ).fit()
    ensemble.delete([1, 45, 90])
    ensemble.delete([7, 60])
    return ensemble


class TestSisaParity:
    def test_fit_and_delete_bit_identical(self):
        ref = build_sisa(False)
        vec = build_sisa(True)
        for a, b in zip(ref._shards, vec._shards):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert set(a.checkpoints) == set(b.checkpoints)
            for key in a.checkpoints:
                assert_states_equal(a.checkpoints[key], b.checkpoints[key])

    def test_report_shape_and_tallies(self):
        vec = build_sisa(True)
        report = vec.vectorize_report()
        assert set(report) == {"requested", "rounds_vectorized",
                               "rounds_fallback", "fallback_reasons", "chunks"}
        assert report["requested"] is True
        assert report["rounds_vectorized"] > 0
        assert sum(report["chunks"].values()) > 0

    def test_off_by_default(self):
        ref = build_sisa(False)
        report = ref.vectorize_report()
        assert report == {
            "requested": False,
            "rounds_vectorized": 0,
            "rounds_fallback": 0,
            "fallback_reasons": {},
            "chunks": {},
        }

    def test_vectorized_predictions_match(self):
        dataset = make_blobs(num_samples=30, num_classes=3, shape=(1, 4, 4),
                             seed=9)
        ref = build_sisa(False)
        vec = build_sisa(True)
        np.testing.assert_array_equal(
            ref.predict(dataset.images), vec.predict(dataset.images)
        )


def sisa_factory():  # module-level, so chains pickle to pool workers
    return MLP(16, 3, np.random.default_rng(42))


def fit_four_shards(vectorize, backend=None):
    """121 samples over 4 shards x 2 slices at batch 10: shard 0 holds 31
    rows, so its last stage takes 4 steps where the others take 3."""
    data = make_blobs(num_samples=121, num_classes=3, shape=(1, 4, 4), seed=3)
    config = SisaConfig(num_shards=4, num_slices=2, batch_size=10, learning_rate=0.1)
    return SisaEnsemble(sisa_factory, data, config, seed=5, backend=backend,
                        vectorize=vectorize).fit()


def build_windows(vectorize, backend=None):
    """fit + two multi-shard deletion windows."""
    ensemble = fit_four_shards(vectorize, backend)
    ensemble.delete([1, 45, 90, 100])
    ensemble.delete([7, 60])
    return ensemble


def assert_ensembles_equal(ref, vec):
    for a, b in zip(ref._shards, vec._shards):
        assert_states_equal(a.model.state_dict(), b.model.state_dict())
        assert set(a.checkpoints) == set(b.checkpoints)
        for key in a.checkpoints:
            assert_states_equal(a.checkpoints[key], b.checkpoints[key])


class CountingBackend(SerialBackend):
    """Serial execution that claims two workers and logs its dispatches."""

    def __init__(self):
        self.batches = []

    def worker_count(self):
        return 2

    def run_tasks(self, tasks):
        tasks = list(tasks)
        self.batches.append(tasks)
        return super().run_tasks(tasks)


class TestSisaOneDispatch:
    """A chain batch is one dispatch of min(K, workers) chunks — not one
    per slice step — on any backend."""

    def test_fit_is_one_run_tasks_call_of_two_chunks(self):
        backend = CountingBackend()
        vec = fit_four_shards(True, backend)
        assert len(backend.batches) == 1
        (units,) = backend.batches
        assert [unit.task_id for unit in units] == [(0, 1), (2, 3)]
        report = vec.vectorize_report()
        assert report["rounds_vectorized"] == 1 and report["rounds_fallback"] == 0
        assert report["chunks"] == {2: 1}
        # Shards 0 and 1 share a chunk and fall out of step at the last
        # stage; that stage's fallback is reported, not silent.
        (reason,) = report["fallback_reasons"]
        assert "step counts [3, 4]" in reason
        assert report["fallback_reasons"][reason] == 1
        assert_ensembles_equal(fit_four_shards(False), vec)

    def test_single_chain_window_is_reported_not_fused(self):
        backend = CountingBackend()
        vec = build_windows(True, backend)
        target = int(vec._shards[2].slice_indices[1][0])
        before = len(backend.batches)
        vec.delete([target])
        assert len(backend.batches) == before + 1
        assert [type(unit).__name__ for unit in backend.batches[-1]] == ["ChainTask"]
        assert vec.vectorize_report()["fallback_reasons"][
            "cohort has a single participant"
        ] >= 1

    @pytest.mark.parametrize("backend", ["serial", "pool:2"])
    def test_fit_and_two_windows_bit_identical(self, backend):
        ref = build_windows(False)
        vec = build_windows(True, backend)
        assert_ensembles_equal(ref, vec)
        report = vec.vectorize_report()
        assert report["rounds_vectorized"] >= 1
        assert set(report["chunks"]) == ({2} if backend == "pool:2" else {1})
