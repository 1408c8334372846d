"""B1 / B2 / B3 baseline unlearning methods."""

import numpy as np
import pytest

from repro.nn.models import MLP
from repro.training import TrainConfig, accuracy, predict_logits, train
from repro.unlearning import (
    IncompetentTeacherConfig,
    IncompetentTeacherUnlearner,
    RapidRetrainer,
    retrain_from_scratch,
)

from .test_goldfish import factory, poisoned_setup

CONFIG = TrainConfig(epochs=10, batch_size=20, learning_rate=0.2)


class TestB1Retrain:
    def test_retrained_model_learns_retain(self, rng):
        _, forget, retain, _ = poisoned_setup()
        model, history = retrain_from_scratch(lambda: factory(3), retain, CONFIG, rng)
        assert accuracy(model, retain) > 0.8
        assert history.losses[-1] < history.losses[0]

    def test_retrained_model_never_saw_forget_mapping(self, rng):
        _, forget, retain, _ = poisoned_setup()
        model, _ = retrain_from_scratch(lambda: factory(3), retain, CONFIG, rng)
        poison_rate = (predict_logits(model, forget.images).argmax(1) == 0).mean()
        assert poison_rate < 0.5  # chance-ish; can't have memorised label 0


class TestB2RapidRetrain:
    def test_retrains_and_learns(self, rng):
        _, forget, retain, _ = poisoned_setup()
        model, history = RapidRetrainer().retrain(lambda: factory(3), retain,
                                                  CONFIG, rng)
        assert accuracy(model, retain) > 0.7
        assert len(history) == CONFIG.epochs

    def test_lr_scale_validation(self):
        with pytest.raises(ValueError):
            RapidRetrainer(lr_scale=0.0)

    def test_faster_early_convergence_than_plain_sgd(self):
        """The FIM preconditioner's selling point: lower loss after the
        same (small) number of epochs."""
        _, _, retain, _ = poisoned_setup()
        short = TrainConfig(epochs=2, batch_size=20, learning_rate=0.01)
        plain = factory(3)
        h_plain = train(plain, retain, short, np.random.default_rng(1))
        fim_model, h_fim = RapidRetrainer(lr_scale=3.0).retrain(
            lambda: factory(3), retain, short, np.random.default_rng(1)
        )
        assert h_fim.final_loss < h_plain.final_loss


class TestB3IncompetentTeacher:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IncompetentTeacherConfig(beta=1.5)
        with pytest.raises(ValueError):
            IncompetentTeacherConfig(temperature=0.0)

    def test_preserves_retain_accuracy(self, rng):
        teacher, forget, retain, _ = poisoned_setup()
        student = factory(42)
        student.load_state_dict(teacher.state_dict())  # start from original
        config = IncompetentTeacherConfig(
            beta=0.4, train=TrainConfig(epochs=6, batch_size=20, learning_rate=0.1)
        )
        IncompetentTeacherUnlearner(config).unlearn(
            student, teacher, factory(99), retain, forget, rng
        )
        assert accuracy(student, retain) > 0.6

    def test_destroys_confidence_on_forget_set(self, rng):
        teacher, forget, retain, _ = poisoned_setup()
        student = factory(42)
        student.load_state_dict(teacher.state_dict())
        config = IncompetentTeacherConfig(
            beta=0.8, train=TrainConfig(epochs=8, batch_size=20, learning_rate=0.2)
        )
        IncompetentTeacherUnlearner(config).unlearn(
            student, teacher, factory(99), retain, forget, rng
        )

        def max_prob(model):
            logits = predict_logits(model, forget.images)
            shifted = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
            return probs.max(axis=1).mean()

        assert max_prob(student) < max_prob(teacher)

    def test_result_metadata(self, rng):
        teacher, forget, retain, _ = poisoned_setup()
        student = factory(42)
        student.load_state_dict(teacher.state_dict())
        config = IncompetentTeacherConfig(
            train=TrainConfig(epochs=2, batch_size=20, learning_rate=0.1)
        )
        result = IncompetentTeacherUnlearner(config).unlearn(
            student, teacher, factory(99), retain, forget, rng
        )
        assert result.epochs_run == 2
        assert result.wall_seconds > 0

    def test_honours_weight_decay_and_grad_clip(self):
        """B3 trains under its whole ``TrainConfig``, like ``train`` and
        Goldfish: it once built a bare ``SGD(lr, momentum)`` and never
        clipped, silently dropping both knobs."""
        teacher, forget, retain, _ = poisoned_setup()
        steps = -(-len(retain) // 20)

        def movement(**knobs):
            student = factory(42)
            student.load_state_dict(teacher.state_dict())
            config = IncompetentTeacherConfig(train=TrainConfig(
                epochs=1, batch_size=20, learning_rate=0.1, momentum=0.0, **knobs
            ))
            IncompetentTeacherUnlearner(config).unlearn(
                student, teacher, factory(99), retain, forget,
                np.random.default_rng(3),
            )
            start = teacher.state_dict()
            return np.sqrt(sum(
                ((value - start[key]) ** 2).sum()
                for key, value in student.state_dict().items()
            ))

        plain = movement()
        assert movement(weight_decay=0.05) != plain
        # Every step moves the parameters by at most lr * clip.
        clipped = movement(grad_clip=1e-3)
        assert 0 < clipped <= steps * 0.1 * 1e-3 * (1 + 1e-9) < plain
