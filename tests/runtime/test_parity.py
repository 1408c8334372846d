"""Serial/pool parity across every refactored fan-out site.

These are the acceptance tests for the runtime layer: the serial backend
must be bit-identical to the historical inline loops, and the parallel
backends must be bit-identical to serial — so parallelism is purely a
wall-clock optimisation.  The multi-process column names the pool by its
``"process"`` alias spec, so these also pin that specs written for the
removed fork-per-call backend keep working at every call site.
"""

import numpy as np
import pytest

from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import MLP
from repro.training import TrainConfig
from repro.unlearning import (
    EarlyStopConfig,
    GoldfishConfig,
    GoldfishLossConfig,
    IncompetentTeacherConfig,
    ShardedClientTrainer,
    SisaConfig,
    SisaEnsemble,
    federated_goldfish,
    federated_incompetent_teacher,
    federated_rapid_retrain,
    federated_retrain,
)

from ..conftest import make_blob_federation, make_blobs


def factory():
    return MLP(16, 3, np.random.default_rng(7))


CONFIG = TrainConfig(epochs=2, batch_size=10, learning_rate=0.05)


def assert_states_equal(a, b):
    assert sorted(a) == sorted(b)
    for key in a:
        np.testing.assert_array_equal(a[key], b[key])


def make_sim(backend=None, seed=3):
    from repro.data.dataset import FederatedDataset

    clients, test = make_blob_federation(
        num_clients=4, per_client=24, test_size=24, seed=seed
    )
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    return FederatedSimulation(
        factory, fed, FedAvgAggregator(), CONFIG, seed=seed, backend=backend
    )


class TestSimulationParity:
    def test_serial_matches_legacy_inline_loop(self):
        """The task path under the serial backend reproduces the historical
        broadcast → client.local_train → upload loop bit for bit."""
        new = make_sim()
        legacy = make_sim()
        history = new.run(2)

        for round_index in range(2):
            legacy.server.broadcast(legacy.clients)
            updates = []
            for client in legacy.clients:
                client.local_train(CONFIG)
                updates.append(client.upload())
            legacy.server.aggregate(updates)

        assert_states_equal(new.server.global_state, legacy.server.global_state)
        # Client-side replicas and RNG positions advanced identically too.
        for a, b in zip(new.clients, legacy.clients):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
        assert len(history) == 2

    @pytest.mark.parametrize("backend", ["pool:2", "process"])
    def test_parallel_rounds_bit_identical_to_serial(self, backend):
        serial = make_sim(backend=None)
        parallel = make_sim(backend=backend)
        h_serial = serial.run(2)
        h_parallel = parallel.run(2)
        assert h_serial.accuracies == h_parallel.accuracies
        assert_states_equal(serial.server.global_state, parallel.server.global_state)
        for a, b in zip(serial.clients, parallel.clients):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestSisaParity:
    SISA = SisaConfig(
        num_shards=3, num_slices=3, epochs_per_slice=1, batch_size=8,
        learning_rate=0.08,
    )

    def run_fit_delete(self, backend):
        dataset = make_blobs(num_samples=54, num_classes=3, shape=(1, 4, 4))
        ensemble = SisaEnsemble(factory, dataset, self.SISA, seed=0, backend=backend)
        ensemble.fit()
        # Deletion spanning two shards: both retrain chains run in one
        # backend submission.
        targets = [
            int(ensemble._shards[0].slice_indices[1][0]),
            int(ensemble._shards[2].slice_indices[2][0]),
        ]
        report = ensemble.delete(targets)
        return ensemble, report

    @pytest.mark.parametrize("backend", ["pool:2", "process"])
    def test_two_shard_deletion_identical_under_parallel_backend(self, backend):
        serial_ensemble, serial_report = self.run_fit_delete(None)
        parallel_ensemble, parallel_report = self.run_fit_delete(backend)
        assert serial_report.shards_affected == parallel_report.shards_affected
        assert serial_report.slices_retrained == parallel_report.slices_retrained
        for a, b in zip(serial_ensemble._shards, parallel_ensemble._shards):
            assert sorted(a.checkpoints) == sorted(b.checkpoints)
            for slice_index in a.checkpoints:
                assert_states_equal(
                    a.checkpoints[slice_index], b.checkpoints[slice_index]
                )
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng_state == b.rng_state

    def test_delete_after_save_load_matches_live_ensemble(self, tmp_path):
        """The manifest persists each shard's RNG position, so a deletion
        on a reloaded ensemble retrains bit-identically to one on the
        live ensemble."""
        dataset = make_blobs(num_samples=54, num_classes=3, shape=(1, 4, 4))
        live = SisaEnsemble(factory, dataset, self.SISA, seed=0).fit()
        live.save(str(tmp_path))
        restored = SisaEnsemble.load(str(tmp_path), factory, dataset)
        target = int(live._shards[1].slice_indices[1][0])
        live.delete([target])
        restored.delete([target])
        for a, b in zip(live._shards, restored._shards):
            assert_states_equal(a.model.state_dict(), b.model.state_dict())
            assert a.rng_state == b.rng_state

    def test_shard_of_lookup_matches_partition(self):
        dataset = make_blobs(num_samples=54, num_classes=3, shape=(1, 4, 4))
        ensemble = SisaEnsemble(factory, dataset, self.SISA, seed=1)
        for index in range(len(dataset)):
            shard_index, slice_index = ensemble.shard_of(index)
            assert index in ensemble._shards[shard_index].slice_indices[slice_index]
        with pytest.raises(KeyError):
            ensemble.shard_of(10_000)


class TestShardedTrainerParity:
    def run_trainer(self, backend):
        dataset = make_blobs(num_samples=60, num_classes=3, shape=(1, 4, 4), seed=1)
        trainer = ShardedClientTrainer(
            dataset, 3, factory, np.random.default_rng(4), backend=backend
        )
        trainer.train_all(CONFIG)
        victims = np.concatenate(
            [trainer.shard_indices[0][:2], trainer.shard_indices[2][:2]]
        )
        trainer.delete(victims, CONFIG)
        return trainer

    @pytest.mark.parametrize("backend", ["pool:2", "process"])
    def test_train_and_multi_shard_delete_identical(self, backend):
        serial = self.run_trainer(None)
        parallel = self.run_trainer(backend)
        assert serial.num_shards == parallel.num_shards
        for a, b in zip(serial.shard_states, parallel.shard_states):
            assert_states_equal(a, b)
        assert serial.shard_rng_states == parallel.shard_rng_states


class TestProtocolParity:
    GOLDFISH = GoldfishConfig(
        loss=GoldfishLossConfig(),
        train=TrainConfig(epochs=1, batch_size=10, learning_rate=0.05),
        early_stop=EarlyStopConfig(enabled=False),
    )
    LOCAL = TrainConfig(epochs=1, batch_size=10, learning_rate=0.05)

    def pretrained_sim(self):
        sim = make_sim(seed=9)
        sim.run(1)
        sim.clients[0].request_deletion(np.arange(4))
        return sim

    def run_protocol(self, name, backend):
        sim = self.pretrained_sim()
        if name == "goldfish":
            out = federated_goldfish(sim, self.GOLDFISH, 2, backend=backend)
        elif name == "b1":
            out = federated_retrain(sim, self.LOCAL, 2, backend=backend)
        elif name == "b2":
            out = federated_rapid_retrain(sim, self.LOCAL, 2, backend=backend)
        else:
            out = federated_incompetent_teacher(
                sim, IncompetentTeacherConfig(train=self.LOCAL), 2, backend=backend
            )
        return out

    @pytest.mark.parametrize("name", ["goldfish", "b1", "b2", "b3"])
    def test_process_backend_bit_identical(self, name):
        serial = self.run_protocol(name, None)
        parallel = self.run_protocol(name, "process")
        assert serial.round_accuracies == parallel.round_accuracies
        assert serial.local_epochs_total == parallel.local_epochs_total
        assert_states_equal(
            serial.global_model.state_dict(), parallel.global_model.state_dict()
        )
