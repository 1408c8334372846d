"""Full-stack integration: the new substrates working together.

Each test chains several subsystems end to end the way a deployment
would, at micro scale:

* FL with history retention, then FedEraser erasure of a client;
* SISA serving predictions through repeated deletion waves.
"""

import numpy as np
import pytest

from repro.data.dataset import FederatedDataset
from repro.federated import (
    FedAvgAggregator,
    FederatedSimulation,
    RoundHistoryStore,
    attach_history,
)
from repro.nn.models import MLP
from repro.training.config import TrainConfig
from repro.training.evaluation import evaluate
from repro.training.trainer import train
from repro.unlearning import FedEraser, FedEraserConfig, SisaConfig, SisaEnsemble

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


class TestHistoryThenErasure:
    def test_history_composes_with_federaser(self, rng):
        sim, factory, config, test = blob_simulation()
        store = attach_history(sim, RoundHistoryStore())
        initial = sim.server.initial_state
        history = sim.run(3)

        assert sum(record.bytes_up for record in history.rounds) > 0
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
