"""Edge-case and failure-injection tests across the unlearning stack."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.nn.models import MLP
from repro.training import TrainConfig
from repro.unlearning import (
    GoldfishConfig,
    GoldfishLossConfig,
    GoldfishUnlearner,
    ShardedClientTrainer,
)

from ..conftest import make_blobs


def factory():
    return MLP(16, 3, np.random.default_rng(42))


SMALL_TRAIN = TrainConfig(epochs=1, batch_size=8, learning_rate=0.05)


class TestTinyDatasets:
    def test_single_sample_forget_set(self, rng):
        retain = make_blobs(num_samples=24, num_classes=3, shape=(1, 4, 4))
        forget = retain.subset([0])
        teacher = factory()
        student = factory()
        config = GoldfishConfig(loss=GoldfishLossConfig(), train=SMALL_TRAIN)
        result = GoldfishUnlearner(config).unlearn(student, teacher, retain,
                                                   forget, rng)
        assert len(result.history) == 1
        assert np.isfinite(result.history.losses).all()

    def test_forget_larger_than_batch(self, rng):
        retain = make_blobs(num_samples=24, num_classes=3, shape=(1, 4, 4))
        forget = make_blobs(num_samples=20, num_classes=3, shape=(1, 4, 4), seed=9)
        config = GoldfishConfig(loss=GoldfishLossConfig(), train=SMALL_TRAIN)
        result = GoldfishUnlearner(config).unlearn(factory(), factory(), retain,
                                                   forget, rng)
        assert np.isfinite(result.history.losses).all()

    def test_retain_smaller_than_batch(self, rng):
        retain = make_blobs(num_samples=5, num_classes=3, shape=(1, 4, 4))
        config = GoldfishConfig(
            loss=GoldfishLossConfig(),
            train=TrainConfig(epochs=1, batch_size=100, learning_rate=0.05),
        )
        result = GoldfishUnlearner(config).unlearn(factory(), factory(), retain,
                                                   None, rng)
        assert len(result.history) == 1

    def test_shard_trainer_one_sample_shards(self, rng):
        ds = make_blobs(num_samples=4, num_classes=2, shape=(1, 4, 4))
        trainer = ShardedClientTrainer(ds, 4, factory, rng)
        assert all(len(idx) == 1 for idx in trainer.shard_indices)
        trainer.train_all(SMALL_TRAIN)
        assert trainer.local_state()


class TestNumericalRobustness:
    def test_extreme_teacher_logits(self, rng):
        """Saturated teachers (±1e3 logits) must not produce NaNs."""
        retain = make_blobs(num_samples=16, num_classes=3, shape=(1, 4, 4))

        class Saturated(MLP):
            def forward(self, x):
                out = super().forward(x)
                out.data *= 1000.0
                return out

        teacher = Saturated(16, 3, np.random.default_rng(0))
        config = GoldfishConfig(loss=GoldfishLossConfig(), train=SMALL_TRAIN)
        result = GoldfishUnlearner(config).unlearn(factory(), teacher, retain,
                                                   None, rng)
        assert np.isfinite(result.history.losses).all()

    def test_long_unlearning_stays_finite(self, rng):
        """Many epochs with an active forget term must not diverge (the
        forget-loss cap is what prevents the Eq. 1 blow-up)."""
        retain = make_blobs(num_samples=30, num_classes=3, shape=(1, 4, 4))
        forget = make_blobs(num_samples=6, num_classes=3, shape=(1, 4, 4), seed=4)
        config = GoldfishConfig(
            loss=GoldfishLossConfig(forget_scale=1.0),
            train=TrainConfig(epochs=25, batch_size=10, learning_rate=0.1),
        )
        student = factory()
        result = GoldfishUnlearner(config).unlearn(student, factory(), retain,
                                                   forget, rng)
        assert np.isfinite(result.history.losses).all()
        for p in student.parameters():
            assert np.isfinite(p.data).all()

    def test_uncapped_variant_available_for_study(self, rng):
        """An explicit huge cap restores the paper's literal Eq. 1 for
        ablation purposes (and documents the instability)."""
        config = GoldfishLossConfig(forget_cap=1e9)
        assert config.forget_cap == 1e9


class TestDeletionOrderIndependence:
    def test_shard_deletion_then_retrain_matches_sizes(self, rng):
        ds = make_blobs(num_samples=40, num_classes=3, shape=(1, 4, 4))
        trainer = ShardedClientTrainer(ds, 4, factory, rng)
        trainer.train_all(SMALL_TRAIN)
        first = trainer.shard_indices[0][:2]
        trainer.delete(first, SMALL_TRAIN)
        second = trainer.shard_indices[-1][:2]
        trainer.delete(second, SMALL_TRAIN)
        assert trainer.total_size() == 36
        merged = np.concatenate(trainer.shard_indices)
        assert len(np.unique(merged)) == 36

    def test_deleting_same_index_twice_is_noop_second_time(self, rng):
        ds = make_blobs(num_samples=20, num_classes=2, shape=(1, 4, 4))
        trainer = ShardedClientTrainer(ds, 2, factory, rng)
        trainer.train_all(SMALL_TRAIN)
        victim = trainer.shard_indices[0][:2]
        trainer.delete(victim, SMALL_TRAIN)
        report = trainer.delete(victim, SMALL_TRAIN)  # already gone
        assert report.affected_shards == []
        assert trainer.total_size() == 18
