"""Full-stack integration: the new substrates working together.

Each test chains several subsystems end to end the way a deployment
would, at micro scale:

* metered FL with history retention, then FedEraser erasure of a client;
* a deletion-manager-scheduled Goldfish run across two batches;
* SISA serving predictions through repeated deletion waves.
"""

import numpy as np
import pytest

from repro.data.dataset import FederatedDataset
from repro.federated import (
    CostMeter,
    FedAvgAggregator,
    FederatedSimulation,
    MeteredSimulationProxy,
    RoundHistoryStore,
    attach_history,
)
from repro.nn.models import MLP
from repro.training.config import TrainConfig
from repro.training.evaluation import evaluate
from repro.training.trainer import train
from repro.unlearning import (
    DeletionManager,
    FedEraser,
    FedEraserConfig,
    GoldfishConfig,
    GoldfishLossConfig,
    PeriodicPolicy,
    SisaConfig,
    SisaEnsemble,
    federated_goldfish,
)

from ..conftest import make_blob_federation, make_blobs


def blob_simulation(num_clients=3, per_client=15, test_size=18, seed=0):
    clients, test = make_blob_federation(
        num_clients=num_clients, per_client=per_client,
        test_size=test_size, seed=seed,
    )
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    factory = lambda: MLP(16, 3, np.random.default_rng(7))
    config = TrainConfig(epochs=1, batch_size=5, learning_rate=0.05)
    sim = FederatedSimulation(factory, fed, FedAvgAggregator(), config, seed=seed)
    return sim, factory, config, test


class TestMeteredHistoryThenErasure:
    def test_metering_and_history_compose_with_federaser(self, rng):
        sim, factory, config, test = blob_simulation()
        store = attach_history(sim, RoundHistoryStore())
        initial = sim.server.initial_state
        metered = MeteredSimulationProxy(sim, CostMeter("pretrain"))
        metered.run(3)

        report = metered.meter.report()
        assert report.rounds == 3
        assert report.upload_bytes > 0
        assert len(store) == 3

        eraser = FedEraser(factory, FedEraserConfig(batch_size=5,
                                                    learning_rate=0.05))
        unlearned, eraser_report = eraser.unlearn(
            store, initial, [c.dataset for c in sim.clients], 0, rng
        )
        assert eraser_report.rounds_replayed == 3
        model = factory()
        model.load_state_dict(unlearned)
        _, accuracy = evaluate(model, test)
        assert accuracy > 0.5


class TestScheduledUnlearningWaves:
    def test_two_batches_through_the_manager(self):
        sim, factory, config, test = blob_simulation(per_client=20)
        sim.run(2)
        manager = DeletionManager(PeriodicPolicy(every_rounds=2))
        goldfish = GoldfishConfig(
            loss=GoldfishLossConfig(temperature=3.0, mu_c=0.25, mu_d=1.0),
            train=config,
        )
        unlearn = lambda s: federated_goldfish(s, goldfish, num_rounds=1)

        manager.submit(0, [0, 1], round_index=1)
        assert manager.maybe_execute(sim, 1, unlearn) is None
        first = manager.maybe_execute(sim, 2, unlearn)
        assert first is not None and first.num_requests == 1

        # Second wave against the *post-deletion* dataset (indices are
        # interpreted in the new, shrunken index space).
        manager.submit(0, [0], round_index=3)
        manager.submit(1, [2, 3], round_index=3)
        second = manager.maybe_execute(sim, 4, unlearn)
        assert second is not None and second.num_requests == 2

        assert manager.num_executions == 2
        assert len(sim.clients[0].dataset) == 20 - 2 - 1
        assert len(sim.clients[1].dataset) == 20 - 2
        _, accuracy = evaluate(sim.global_model(), test)
        assert accuracy > 0.5


class TestSisaDeletionWaves:
    def test_repeated_waves_keep_serving(self):
        dataset = make_blobs(num_samples=72, num_classes=3, shape=(1, 4, 4))
        factory = lambda: MLP(16, 3, np.random.default_rng(3))
        ensemble = SisaEnsemble(
            factory, dataset,
            SisaConfig(num_shards=3, num_slices=3, epochs_per_slice=2,
                       batch_size=8, learning_rate=0.08),
            seed=0,
        ).fit()
        rng = np.random.default_rng(5)
        deleted: set = set()
        for _ in range(3):
            candidates = [i for i in range(len(dataset)) if i not in deleted]
            wave = rng.choice(candidates, size=4, replace=False).tolist()
            report = ensemble.delete(wave)
            deleted.update(wave)
            assert report.num_deleted == 4
        assert ensemble.num_deleted == 12
        remaining = dataset.remove(sorted(deleted))
        assert ensemble.evaluate(remaining) > 0.7
