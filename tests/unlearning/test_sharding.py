"""Shard training, aggregation and the Eq. 8/9/10 arithmetic identities."""

import numpy as np
import pytest

from repro.federated import state_math
from repro.nn.models import MLP
from repro.training import TrainConfig, accuracy
from repro.unlearning import ShardedClientTrainer

from ..conftest import make_blobs


def factory():
    return MLP(16, 3, np.random.default_rng(42))


def make_trainer(num_samples=60, num_shards=3, seed=0):
    ds = make_blobs(num_samples=num_samples, num_classes=3, shape=(1, 4, 4), seed=seed)
    return ShardedClientTrainer(ds, num_shards, factory, np.random.default_rng(seed)), ds


CONFIG = TrainConfig(epochs=2, batch_size=10, learning_rate=0.1)


class TestConstruction:
    def test_shards_partition_data(self):
        trainer, ds = make_trainer(num_samples=61, num_shards=4)
        merged = np.concatenate(trainer.shard_indices)
        assert sorted(merged.tolist()) == list(range(61))
        assert trainer.total_size() == 61

    def test_single_shard_allowed(self):
        trainer, _ = make_trainer(num_shards=1)
        assert trainer.num_shards == 1

    def test_invalid_shard_count(self):
        ds = make_blobs(num_samples=10)
        with pytest.raises(ValueError):
            ShardedClientTrainer(ds, 0, factory, np.random.default_rng(0))


class TestEq8Aggregation:
    def test_aggregate_is_size_weighted(self):
        trainer, _ = make_trainer(num_samples=60, num_shards=3)
        # Overwrite shard states with known constants to verify weighting.
        for i, value in enumerate((1.0, 2.0, 3.0)):
            trainer.shard_states[i] = {
                k: np.full_like(v, value) for k, v in trainer.shard_states[i].items()
            }
        sizes = trainer.shard_sizes()
        expected = (sizes[0] * 1 + sizes[1] * 2 + sizes[2] * 3) / sizes.sum()
        combined = trainer.local_state()
        for v in combined.values():
            np.testing.assert_allclose(v, expected)

    def test_exclude_shard(self):
        trainer, _ = make_trainer(num_samples=60, num_shards=3)
        for i, value in enumerate((1.0, 2.0, 3.0)):
            trainer.shard_states[i] = {
                k: np.full_like(v, value) for k, v in trainer.shard_states[i].items()
            }
        sizes = trainer.shard_sizes()
        partial = trainer.aggregate(exclude=0)
        expected = (sizes[1] * 2 + sizes[2] * 3) / sizes.sum()
        for v in partial.values():
            np.testing.assert_allclose(v, expected)

    def test_exclude_only_shard_raises(self):
        trainer, _ = make_trainer(num_shards=1)
        with pytest.raises(ValueError):
            trainer.aggregate(exclude=0)


class TestEq10Recovery:
    def test_recover_shard_inverts_aggregation(self):
        """Eq. 10 must exactly invert Eq. 8: recovering shard i from the
        combined model returns shard i's own weights."""
        trainer, _ = make_trainer(num_samples=60, num_shards=3)
        trainer.train_all(CONFIG)
        combined = trainer.local_state()
        for shard in range(3):
            recovered = trainer.recover_shard_state(shard, combined)
            for key, value in recovered.items():
                np.testing.assert_allclose(
                    value, trainer.shard_states[shard][key], atol=1e-9
                )


class TestTraining:
    def test_train_all_improves_accuracy(self):
        trainer, ds = make_trainer(num_samples=90, num_shards=3)
        before = accuracy(trainer.local_model(), ds)
        for _ in range(4):
            trainer.train_all(CONFIG)
        after = accuracy(trainer.local_model(), ds)
        assert after > before
        assert after > 0.6

    def test_train_single_shard_only_changes_that_state(self):
        trainer, _ = make_trainer(num_shards=3)
        before = [
            {k: v.copy() for k, v in s.items()} for s in trainer.shard_states
        ]
        trainer.train_shard(1, CONFIG)
        assert state_math.l2_distance(trainer.shard_states[1], before[1]) > 0
        assert state_math.l2_distance(trainer.shard_states[0], before[0]) == 0
        assert state_math.l2_distance(trainer.shard_states[2], before[2]) == 0


class TestDeletion:
    def test_locate_maps_indices_to_shards(self):
        trainer, _ = make_trainer(num_samples=30, num_shards=3)
        target = trainer.shard_indices[1][:2]
        hits = trainer.locate(target)
        assert list(hits) == [1]
        np.testing.assert_array_equal(hits[1], np.sort(target))

    def test_locate_out_of_range(self):
        trainer, _ = make_trainer(num_samples=30)
        with pytest.raises(ValueError):
            trainer.locate(np.array([999]))

    @pytest.mark.parametrize("indices", [[2.5], [True], ["7"], [float("nan")]])
    def test_indices_that_are_not_whole_numbers_rejected(self, indices):
        """``2.5``, ``True`` and ``"7"`` used to name samples 2, 1 and 7."""
        trainer, _ = make_trainer(num_samples=30)
        with pytest.raises(ValueError, match="indices must be"):
            trainer.locate(indices)
        with pytest.raises(ValueError, match="indices must be"):
            trainer.delete(indices, CONFIG)
        assert trainer.total_size() == 30

    def test_delete_removes_samples(self):
        trainer, _ = make_trainer(num_samples=30, num_shards=3)
        trainer.train_all(CONFIG)
        victim = trainer.shard_indices[0][:3]
        report = trainer.delete(victim, CONFIG)
        assert report.affected_shards == [0]
        assert report.removed_per_shard == {0: 3}
        assert trainer.total_size() == 27
        remaining = np.concatenate(trainer.shard_indices)
        assert not np.isin(victim, remaining).any()

    def test_delete_untouched_shards_not_retrained(self):
        trainer, _ = make_trainer(num_samples=30, num_shards=3)
        trainer.train_all(CONFIG)
        before = {k: v.copy() for k, v in trainer.shard_states[2].items()}
        victim = trainer.shard_indices[0][:2]
        trainer.delete(victim, CONFIG)
        assert state_math.l2_distance(trainer.shard_states[2], before) == 0

    def test_delete_whole_shard_drops_it(self):
        trainer, _ = make_trainer(num_samples=30, num_shards=3)
        trainer.train_all(CONFIG)
        victim = trainer.shard_indices[1]
        report = trainer.delete(victim, CONFIG)
        assert report.dropped_shards == [1]
        assert trainer.num_shards == 2
        assert trainer.total_size() == 30 - len(victim)

    def test_delete_across_multiple_shards(self):
        trainer, _ = make_trainer(num_samples=30, num_shards=3)
        trainer.train_all(CONFIG)
        victim = np.concatenate([
            trainer.shard_indices[0][:2], trainer.shard_indices[2][:2]
        ])
        report = trainer.delete(victim, CONFIG)
        assert report.affected_shards == [0, 2]
        assert sorted(report.retrained_shards) == [0, 2]

    def test_delete_everything_raises(self):
        trainer, _ = make_trainer(num_samples=10, num_shards=1)
        with pytest.raises(ValueError):
            trainer.delete(np.arange(10), CONFIG)

    def test_deletion_report_has_timing(self):
        trainer, _ = make_trainer(num_samples=30, num_shards=3)
        trainer.train_all(CONFIG)
        report = trainer.delete(trainer.shard_indices[0][:1], CONFIG)
        assert report.wall_seconds >= 0

    def test_reinitialize_affected_path(self):
        trainer, _ = make_trainer(num_samples=30, num_shards=3)
        trainer.train_all(CONFIG)
        victim = trainer.shard_indices[0][:2]
        report = trainer.delete(victim, CONFIG, reinitialize_affected=True)
        assert report.retrained_shards == [0]

    def test_model_usable_after_deletion(self):
        trainer, ds = make_trainer(num_samples=90, num_shards=3)
        for _ in range(3):
            trainer.train_all(CONFIG)
        trainer.delete(trainer.shard_indices[0][:5], CONFIG)
        trainer.train_all(CONFIG)
        assert accuracy(trainer.local_model(), ds) > 0.5
