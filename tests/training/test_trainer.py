"""The supervised training loop."""

import numpy as np
import pytest

from repro.nn.models import MLP
from repro.training import TrainConfig, accuracy, train
from repro.unlearning.baselines import DiagonalFIMSGD

from ..conftest import make_blobs


def fresh_model(seed=0):
    return MLP(16, 3, np.random.default_rng(seed))


class TestTrain:
    def test_loss_decreases(self, rng):
        ds = make_blobs(num_samples=60, num_classes=3, shape=(1, 4, 4))
        history = train(fresh_model(), ds, TrainConfig(epochs=8, batch_size=20,
                                                       learning_rate=0.1), rng)
        assert history.losses[-1] < history.losses[0]

    def test_reaches_high_accuracy_on_easy_data(self, rng):
        ds = make_blobs(num_samples=60, num_classes=3, shape=(1, 4, 4))
        model = fresh_model()
        train(model, ds, TrainConfig(epochs=15, batch_size=20, learning_rate=0.2), rng)
        assert accuracy(model, ds) > 0.9

    def test_history_length_matches_epochs(self, rng):
        ds = make_blobs(num_samples=30, shape=(1, 4, 4))
        history = train(fresh_model(), ds, TrainConfig(epochs=4, batch_size=10,
                                                       learning_rate=0.1), rng)
        assert len(history) == 4

    def test_empty_dataset_rejected(self, rng):
        from repro.data import ArrayDataset
        empty = ArrayDataset(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=int), 3)
        with pytest.raises(ValueError):
            train(fresh_model(), empty, TrainConfig(epochs=1), rng)

    def test_epoch_callback_stops_early(self, rng):
        ds = make_blobs(num_samples=30, shape=(1, 4, 4))
        history = train(
            fresh_model(), ds,
            TrainConfig(epochs=10, batch_size=10, learning_rate=0.1), rng,
            epoch_callback=lambda epoch, loss: epoch >= 2,
        )
        assert len(history) == 3

    def test_custom_optimizer_used(self, rng):
        ds = make_blobs(num_samples=30, shape=(1, 4, 4))
        model = fresh_model()
        optimizer = DiagonalFIMSGD(model.parameters(), lr=0.01)
        history = train(model, ds, TrainConfig(epochs=3, batch_size=10,
                                               learning_rate=0.1), rng,
                        optimizer=optimizer)
        assert optimizer._steps > 0
        assert len(history) == 3

    def test_focal_loss_choice(self, rng):
        ds = make_blobs(num_samples=30, shape=(1, 4, 4))
        history = train(fresh_model(), ds,
                        TrainConfig(epochs=2, batch_size=10, learning_rate=0.1,
                                    loss="focal"), rng)
        assert len(history) == 2

    def test_deterministic_given_seed(self):
        ds = make_blobs(num_samples=40, shape=(1, 4, 4))
        results = []
        for _ in range(2):
            model = fresh_model(3)
            train(model, ds, TrainConfig(epochs=3, batch_size=10, learning_rate=0.1),
                  np.random.default_rng(11))
            results.append(model.state_dict())
        for key in results[0]:
            np.testing.assert_allclose(results[0][key], results[1][key])
