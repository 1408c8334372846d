"""TrainConfig / TrainHistory validation and helpers."""

import numpy as np
import pytest

from repro.training import EpochStats, TrainConfig, TrainHistory


class TestTrainConfig:
    def test_paper_defaults(self):
        config = TrainConfig()
        assert config.batch_size == 100
        assert config.learning_rate == 0.001
        assert config.momentum == 0.9

    def test_with_overrides(self):
        config = TrainConfig().with_overrides(epochs=7, learning_rate=0.5)
        assert config.epochs == 7
        assert config.learning_rate == 0.5
        assert config.batch_size == 100  # untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            TrainConfig().epochs = 3

    @pytest.mark.parametrize("kwargs", [
        {"epochs": -1},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"weight_decay": -1.0},
        {"batch_size": 2.5},
        {"batch_size": float("inf")},
        {"batch_size": True},
        {"batch_size": 8.0},
        {"epochs": float("nan")},
        {"epochs": 2.5},
        {"epochs": False},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        config = TrainConfig(epochs=np.int64(2), batch_size=np.int32(8))
        assert config == TrainConfig(epochs=2, batch_size=8)


class TestTrainHistory:
    def test_records_and_reads(self):
        history = TrainHistory()
        history.record(EpochStats(epoch=0, mean_loss=1.0, num_batches=3))
        history.record(EpochStats(epoch=1, mean_loss=0.5, num_batches=3))
        assert history.losses == [1.0, 0.5]
        assert history.final_loss == 0.5
        assert len(history) == 2

    def test_empty_final_loss_raises(self):
        with pytest.raises(ValueError):
            TrainHistory().final_loss
