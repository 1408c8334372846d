"""The Goldfish teacher/student unlearning loop."""

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.nn.models import MLP
from repro.training import TrainConfig, accuracy, train
from repro.unlearning import (
    EarlyStopConfig,
    GoldfishConfig,
    GoldfishLossConfig,
    GoldfishUnlearner,
)

from ..conftest import make_blobs


def factory(seed=42):
    return MLP(16, 4, np.random.default_rng(seed))


def poisoned_setup(seed=0):
    """Teacher trained on data where class-3 samples are mislabelled as 0
    (a crude 'backdoor'); forget set = the mislabelled samples."""
    ds = make_blobs(num_samples=80, num_classes=4, shape=(1, 4, 4), seed=seed)
    labels = ds.labels.copy()
    poison_mask = labels == 3
    labels[poison_mask] = 0
    poisoned = ArrayDataset(ds.images, labels, 4)
    forget = poisoned.subset(np.flatnonzero(poison_mask))
    retain = poisoned.subset(np.flatnonzero(~poison_mask))

    teacher = factory(1)
    train(teacher, poisoned, TrainConfig(epochs=20, batch_size=20, learning_rate=0.2),
          np.random.default_rng(2))
    clean = ds  # original correct labels
    return teacher, forget, retain, clean


BASE_CONFIG = GoldfishConfig(
    loss=GoldfishLossConfig(temperature=3.0),
    train=TrainConfig(epochs=10, batch_size=20, learning_rate=0.2),
)


class TestUnlearningBehaviour:
    def test_student_learns_retain_data(self, rng):
        teacher, forget, retain, clean = poisoned_setup()
        student = factory(7)
        GoldfishUnlearner(BASE_CONFIG).unlearn(student, teacher, retain, forget, rng)
        assert accuracy(student, retain) > 0.8

    def test_student_forgets_poisoned_mapping(self, rng):
        """After unlearning, the student must NOT predict the poisoned label
        (0) on the forget samples at the teacher's rate."""
        teacher, forget, retain, clean = poisoned_setup()
        from repro.training import predict_logits
        teacher_poison_rate = (
            predict_logits(teacher, forget.images).argmax(1) == 0
        ).mean()
        student = factory(7)
        GoldfishUnlearner(BASE_CONFIG).unlearn(student, teacher, retain, forget, rng)
        student_poison_rate = (
            predict_logits(student, forget.images).argmax(1) == 0
        ).mean()
        assert teacher_poison_rate > 0.8  # teacher was contaminated
        assert student_poison_rate < teacher_poison_rate - 0.3

    def test_no_forget_set_degrades_to_distillation(self, rng):
        teacher, _, retain, _ = poisoned_setup()
        student = factory(7)
        result = GoldfishUnlearner(BASE_CONFIG).unlearn(student, teacher, retain,
                                                        None, rng)
        assert result.epochs_run == BASE_CONFIG.train.epochs
        assert accuracy(student, retain) > 0.8

    def test_empty_forget_set_treated_as_none(self, rng):
        teacher, _, retain, _ = poisoned_setup()
        empty = retain.subset([])
        student = factory(7)
        result = GoldfishUnlearner(BASE_CONFIG).unlearn(student, teacher, retain,
                                                        empty, rng)
        assert result.epochs_run > 0

    def test_result_metadata(self, rng):
        teacher, forget, retain, _ = poisoned_setup()
        student = factory(7)
        result = GoldfishUnlearner(BASE_CONFIG).unlearn(student, teacher, retain,
                                                        forget, rng)
        assert result.epochs_run == len(result.epoch_losses)
        assert result.wall_seconds > 0
        assert result.temperature_used == 3.0
        assert not result.stopped_early


class TestEarlyStop:
    def test_early_stop_cuts_epochs(self, rng):
        teacher, forget, retain, _ = poisoned_setup()
        config = GoldfishConfig(
            loss=GoldfishLossConfig(),
            train=TrainConfig(epochs=30, batch_size=20, learning_rate=0.2),
            early_stop=EarlyStopConfig(delta=1.0, mode="last", enabled=True),
        )
        student = factory(7)
        result = GoldfishUnlearner(config).unlearn(student, teacher, retain, forget, rng)
        assert result.stopped_early
        assert result.epochs_run < 30

    def test_disabled_early_stop_runs_all_epochs(self, rng):
        teacher, forget, retain, _ = poisoned_setup()
        config = GoldfishConfig(
            loss=GoldfishLossConfig(),
            train=TrainConfig(epochs=4, batch_size=20, learning_rate=0.2),
            early_stop=EarlyStopConfig(enabled=False),
        )
        student = factory(7)
        result = GoldfishUnlearner(config).unlearn(student, teacher, retain, forget, rng)
        assert result.epochs_run == 4


class TestAdaptiveTemperature:
    def test_adaptive_temperature_used(self, rng):
        teacher, forget, retain, _ = poisoned_setup()
        config = GoldfishConfig(
            loss=GoldfishLossConfig(temperature=3.0),
            train=TrainConfig(epochs=1, batch_size=20, learning_rate=0.1),
            adaptive_temperature=True,
        )
        student = factory(7)
        result = GoldfishUnlearner(config).unlearn(student, teacher, retain, forget, rng)
        from repro.unlearning import adaptive_temperature
        expected = adaptive_temperature(3.0, len(retain), len(forget))
        assert result.temperature_used == pytest.approx(expected)

    def test_fixed_temperature_by_default(self, rng):
        teacher, forget, retain, _ = poisoned_setup()
        student = factory(7)
        result = GoldfishUnlearner(BASE_CONFIG).unlearn(student, teacher, retain,
                                                        forget, rng)
        assert result.temperature_used == BASE_CONFIG.loss.temperature


class TestAblationToggles:
    @pytest.mark.parametrize("use_confusion,use_distillation", [
        (False, False), (True, False), (False, True), (True, True),
    ])
    def test_every_variant_trains(self, rng, use_confusion, use_distillation):
        teacher, forget, retain, _ = poisoned_setup()
        config = GoldfishConfig(
            loss=GoldfishLossConfig(use_confusion=use_confusion,
                                    use_distillation=use_distillation),
            train=TrainConfig(epochs=2, batch_size=20, learning_rate=0.1),
        )
        student = factory(7)
        result = GoldfishUnlearner(config).unlearn(student, teacher, retain, forget, rng)
        assert result.epochs_run == 2
        assert all(np.isfinite(l) for l in result.epoch_losses)


class CountingMLP(MLP):
    """An MLP that counts its forward calls."""

    calls = 0

    def forward(self, x):
        self.calls += 1
        return super().forward(x)


class TestTeacherLogitsComputedOnce:
    """The frozen teacher is evaluated once per request, not once per step."""

    def setup_data(self, num_samples=600):
        data = make_blobs(num_samples=num_samples, num_classes=4, shape=(1, 4, 4))
        forget = data.subset(np.arange(20))
        retain = data.subset(np.arange(20, num_samples))
        return CountingMLP(16, 4, np.random.default_rng(1)), retain, forget

    @pytest.mark.parametrize("epochs,batch_size", [(1, 20), (3, 7), (2, 600)])
    def test_teacher_runs_once_over_the_retain_set(self, epochs, batch_size):
        teacher, retain, forget = self.setup_data()
        config = GoldfishConfig(
            train=TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.1),
            early_stop=EarlyStopConfig(delta=0.0, enabled=True),
        )
        result = GoldfishUnlearner(config).unlearn(
            factory(7), teacher, retain, forget, np.random.default_rng(3)
        )
        assert teacher.calls == -(-len(retain) // 256) == 3
        assert result.teacher_logits.shape == (len(retain), 4)

    def test_supplied_logits_replace_the_teacher(self):
        from repro.training import predict_logits

        teacher, retain, forget = self.setup_data(num_samples=120)
        via_teacher = factory(7)
        first = GoldfishUnlearner(BASE_CONFIG).unlearn(
            via_teacher, teacher, retain, forget, np.random.default_rng(3)
        )
        logits = predict_logits(teacher, retain.images)
        np.testing.assert_array_equal(first.teacher_logits, logits)

        teacher.calls = 0
        via_logits = factory(7)
        second = GoldfishUnlearner(BASE_CONFIG).unlearn(
            via_logits, teacher, retain, forget, np.random.default_rng(3),
            teacher_logits=logits,
        )
        assert teacher.calls == 0
        assert second.epoch_losses == first.epoch_losses
        for key, value in via_teacher.state_dict().items():
            np.testing.assert_array_equal(value, via_logits.state_dict()[key])
        # The teacher itself is optional once its logits are known.
        no_teacher = factory(7)
        GoldfishUnlearner(BASE_CONFIG).unlearn(
            no_teacher, None, retain, forget, np.random.default_rng(3),
            teacher_logits=logits,
        )
        for key, value in via_teacher.state_dict().items():
            np.testing.assert_array_equal(value, no_teacher.state_dict()[key])

    def test_early_stop_reference_is_the_teachers_mean_loss(self, monkeypatch):
        from repro.training import mean_loss
        from repro.unlearning import goldfish

        references = []

        class RecordingStopper(goldfish.ExcessRiskStopper):
            def __init__(self, config, reference_loss):
                references.append(reference_loss)
                super().__init__(config, reference_loss)

        monkeypatch.setattr(goldfish, "ExcessRiskStopper", RecordingStopper)
        teacher, forget, retain, _ = poisoned_setup()
        config = GoldfishConfig(
            train=TrainConfig(epochs=2, batch_size=20, learning_rate=0.2),
            early_stop=EarlyStopConfig(enabled=True),
        )
        GoldfishUnlearner(config).unlearn(
            factory(7), teacher, retain, forget, np.random.default_rng(3)
        )
        assert references == [mean_loss(teacher, retain)]

    def test_misaligned_logits_are_refused(self):
        teacher, retain, forget = self.setup_data(num_samples=120)
        with pytest.raises(ValueError, match="teacher_logits holds 99 rows"):
            GoldfishUnlearner(BASE_CONFIG).unlearn(
                factory(7), teacher, retain, forget, np.random.default_rng(3),
                teacher_logits=np.zeros((len(retain) - 1, 4)),
            )

    def test_neither_teacher_nor_logits_is_refused(self):
        _, retain, forget = self.setup_data(num_samples=120)
        with pytest.raises(ValueError, match="teacher or its logits"):
            GoldfishUnlearner(BASE_CONFIG).unlearn(
                factory(7), None, retain, forget, np.random.default_rng(3)
            )
