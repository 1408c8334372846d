"""B1 / B2 / B3 baseline unlearning methods."""

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.training import TrainConfig, accuracy, predict_logits, train
from repro.unlearning import (
    IncompetentTeacherConfig,
    IncompetentTeacherUnlearner,
    RapidRetrainer,
    federated_retrain,
)

from .test_goldfish import factory, poisoned_setup

CONFIG = TrainConfig(epochs=10, batch_size=20, learning_rate=0.2)


class TestB1Retrain:
    """B1 is the stock client train task on the retained data, from a
    fresh model (``federated_retrain``)."""

    def _run(self, forget, retain):
        """Pretrain one client on retain + forget, then delete the forget
        part and retrain; returns (origin state, retrained model)."""
        data = retain.concat(forget)
        sim = FederatedSimulation(
            lambda: factory(3),
            FederatedDataset(client_datasets=[data], test_set=retain),
            FedAvgAggregator(), CONFIG, seed=0,
        )
        sim.run(1)
        origin = sim.global_model().state_dict()
        sim.clients[0].request_deletion(np.arange(len(retain), len(data)))
        return origin, federated_retrain(sim, CONFIG, num_rounds=2).global_model

    def test_retrained_model_learns_retain(self):
        _, forget, retain, _ = poisoned_setup()
        _, model = self._run(forget, retain)
        assert accuracy(model, retain) > 0.8

    def test_result_does_not_depend_on_the_forgotten_samples(self):
        """Poisoned or honestly labelled, the deleted samples shaped the
        origin model and leave no trace in B1's, bit for bit."""
        _, forget, retain, clean = poisoned_setup()
        honest = clean.subset(np.flatnonzero(clean.labels == 3))
        origin_a, model_a = self._run(forget, retain)
        origin_b, model_b = self._run(honest, retain)
        assert any(
            not np.array_equal(origin_a[key], origin_b[key]) for key in origin_a
        )
        state_a, state_b = model_a.state_dict(), model_b.state_dict()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])


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
        assert len(result.history) == 2
        assert result.wall_seconds > 0

    @pytest.mark.parametrize("emptied", ["retain", "forget"])
    def test_rejects_an_empty_set(self, rng, emptied):
        """An empty retain set once died on ``total / num_batches`` and an
        empty forget set trained to ``epoch_losses == [nan]``."""
        teacher, forget, retain, _ = poisoned_setup()
        sets = {"retain": retain, "forget": forget}
        sets[emptied] = sets[emptied].subset([])
        config = IncompetentTeacherConfig(
            train=TrainConfig(epochs=1, batch_size=20, learning_rate=0.1)
        )
        with pytest.raises(ValueError, match="empty"):
            IncompetentTeacherUnlearner(config).unlearn(
                factory(42), teacher, factory(99), sets["retain"], sets["forget"], rng
            )

    def test_honours_weight_decay(self):
        """B3 trains under its whole ``TrainConfig``, like ``train`` and
        Goldfish: it once built a bare ``SGD(lr, momentum)``, silently
        dropping the weight decay."""
        teacher, forget, retain, _ = poisoned_setup()

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

        assert movement(weight_decay=0.05) != movement()
