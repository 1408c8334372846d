"""``repro.training`` — configs, the plain training loop and evaluation."""

from .config import EpochStats, TrainConfig, TrainHistory
from .evaluation import (
    accuracy,
    evaluate,
    mean_loss,
    predict_logits,
    predict_proba,
    prediction_mse,
)
from .trainer import make_optimizer, train

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "EpochStats",
    "train",
    "make_optimizer",
    "evaluate",
    "accuracy",
    "mean_loss",
    "predict_logits",
    "predict_proba",
    "prediction_mse",
]
