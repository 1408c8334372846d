"""Evaluation helpers: logits, probabilities, accuracy, MSE score."""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn.models import MLP
from repro.training import (
    accuracy,
    evaluate,
    mean_loss,
    predict_logits,
    predict_proba,
    prediction_mse,
)

from ..conftest import make_blobs


def model_and_data(seed=0):
    ds = make_blobs(num_samples=40, num_classes=3, shape=(1, 4, 4), seed=seed)
    model = MLP(16, 3, np.random.default_rng(seed))
    return model, ds


class TestPredict:
    def test_logits_shape(self):
        model, ds = model_and_data()
        logits = predict_logits(model, ds.images)
        assert logits.shape == (40, 3)

    @pytest.mark.parametrize("arch", ["mlp", "lenet5", "resnet8_slim"])
    def test_empty_input_keeps_the_class_axis(self, arch):
        # Regression: an empty input used to come back with shape (0,),
        # so predict_proba (and prediction_mse through it) raised
        # AxisError on axis 1.
        from repro.nn.models import build_model

        model = build_model(arch, num_classes=3, rng=np.random.default_rng(0),
                            in_channels=1, image_size=28)
        images = np.zeros((0, 1, 28, 28))
        assert predict_logits(model, images).shape == (0, 3)
        assert predict_proba(model, images).shape == (0, 3)
        assert model.training  # the mode is restored on the empty path too

    def test_batching_consistent(self):
        model, ds = model_and_data()
        full = predict_logits(model, ds.images, batch_size=1000)
        batched = predict_logits(model, ds.images, batch_size=7)
        np.testing.assert_allclose(full, batched)

    def test_proba_is_distribution(self):
        model, ds = model_and_data()
        probs = predict_proba(model, ds.images)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(40), atol=1e-9)
        assert (probs >= 0).all()

    def test_proba_temperature_smooths(self):
        model, ds = model_and_data()
        sharp = predict_proba(model, ds.images, temperature=1.0)
        smooth = predict_proba(model, ds.images, temperature=5.0)
        assert smooth.max() <= sharp.max() + 1e-12

    def test_training_mode_restored(self):
        model, ds = model_and_data()
        model.train()
        predict_logits(model, ds.images)
        assert model.training
        model.eval()
        predict_logits(model, ds.images)
        assert not model.training


class TestEvaluate:
    def test_returns_loss_and_accuracy(self):
        model, ds = model_and_data()
        loss, acc = evaluate(model, ds)
        assert loss > 0
        assert 0.0 <= acc <= 1.0

    def test_accuracy_and_mean_loss_consistent(self):
        model, ds = model_and_data()
        loss, acc = evaluate(model, ds)
        assert accuracy(model, ds) == acc
        assert mean_loss(model, ds) == loss

    def test_empty_dataset_rejected(self):
        from repro.data import ArrayDataset
        model, _ = model_and_data()
        empty = ArrayDataset(np.zeros((0, 1, 4, 4)), np.zeros(0, dtype=int), 3)
        with pytest.raises(ValueError):
            evaluate(model, empty)


class TestPredictionMSE:
    def test_perfect_model_scores_near_zero(self):
        """A model with one-hot-like outputs on correct labels has tiny MSE."""
        model, ds = model_and_data()

        class Oracle(type(model)):
            pass

        from repro.nn.module import Module

        class Perfect(Module):
            def forward(self, x):
                logits = np.full((len(x), 3), -100.0)
                # look up true labels by matching images
                for i in range(len(x)):
                    idx = np.where(
                        np.isclose(ds.images, x.data[i]).all(axis=(1, 2, 3))
                    )[0][0]
                    logits[i, ds.labels[idx]] = 100.0
                return Tensor(logits)

        assert prediction_mse(Perfect(), ds) < 1e-6

    def test_worse_model_scores_higher(self):
        model, ds = model_and_data()
        from repro.training import TrainConfig, train
        trained = MLP(16, 3, np.random.default_rng(0))
        train(trained, ds, TrainConfig(epochs=15, batch_size=10, learning_rate=0.2),
              np.random.default_rng(1))
        assert prediction_mse(trained, ds) < prediction_mse(model, ds)
