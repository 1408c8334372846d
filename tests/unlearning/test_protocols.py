"""Federation-level unlearning protocol flows."""

import numpy as np
import pytest

from repro.data import FederatedDataset
from repro.federated import FederatedSimulation, FedAvgAggregator
from repro.nn.models import MLP, RegistryModelFactory
from repro.runtime.task import capture_rng, restore_rng
from repro.training import TrainConfig, accuracy
from repro.unlearning import (
    EarlyStopConfig,
    GoldfishConfig,
    GoldfishLossConfig,
    GoldfishUnlearner,
    IncompetentTeacherConfig,
    IncompetentTeacherUnlearner,
    federated_goldfish,
    federated_incompetent_teacher,
    federated_rapid_retrain,
    federated_retrain,
)

from repro.unlearning.protocols import _GoldfishClientTask, _IncompetentClientTask

from ..conftest import make_blob_federation, make_blobs

CONFIG = TrainConfig(epochs=2, batch_size=10, learning_rate=0.15)


def build_sim(num_clients=3, seed=0):
    clients, test = make_blob_federation(num_clients, per_client=30, test_size=60,
                                         seed=seed)
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    sim = FederatedSimulation(
        lambda: MLP(16, 3, np.random.default_rng(42)),
        fed, FedAvgAggregator(), CONFIG, seed=seed,
    )
    sim.run(3)  # pretrain
    sim.clients[0].request_deletion(np.arange(5))
    return sim


GOLDFISH = GoldfishConfig(loss=GoldfishLossConfig(), train=CONFIG)


class TestGoldfishProtocol:
    def test_returns_outcome(self):
        sim = build_sim()
        outcome = federated_goldfish(sim, GOLDFISH, num_rounds=2)
        assert outcome.rounds_run == 2
        assert len(outcome.round_accuracies) == 2
        assert outcome.local_epochs_total > 0
        assert outcome.wall_seconds > 0

    def test_deletion_finalized(self):
        sim = build_sim()
        federated_goldfish(sim, GOLDFISH, num_rounds=1)
        assert not sim.clients[0].has_pending_deletion
        assert len(sim.clients[0].dataset) == 25

    def test_model_functional_after_unlearning(self):
        sim = build_sim()
        outcome = federated_goldfish(sim, GOLDFISH, num_rounds=3)
        assert accuracy(outcome.global_model, sim.fed_data.test_set) > 0.5

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            federated_goldfish(build_sim(), GOLDFISH, num_rounds=0)

    def test_round_callback(self):
        sim = build_sim()
        seen = []
        federated_goldfish(sim, GOLDFISH, num_rounds=2,
                           round_callback=lambda i, s: seen.append(i))
        assert seen == [0, 1]


class TestRetrainProtocols:
    def test_b1_reaches_accuracy(self):
        sim = build_sim()
        outcome = federated_retrain(sim, CONFIG, num_rounds=3)
        assert accuracy(outcome.global_model, sim.fed_data.test_set) > 0.5

    def test_b1_reinitialises_global(self):
        sim = build_sim()
        # Capture pre-unlearning state; after reinit + 1 round the result
        # should differ from continuing training.
        outcome = federated_retrain(sim, CONFIG, num_rounds=1)
        assert outcome.rounds_run == 1

    def test_b2_runs_with_persistent_fim(self):
        sim = build_sim()
        outcome = federated_rapid_retrain(sim, CONFIG, num_rounds=2)
        assert len(outcome.round_accuracies) == 2
        assert accuracy(outcome.global_model, sim.fed_data.test_set) > 0.4

    def test_b2_callback(self):
        sim = build_sim()
        seen = []
        federated_rapid_retrain(sim, CONFIG, num_rounds=2,
                                round_callback=lambda i, s: seen.append(i))
        assert seen == [0, 1]


class TestIncompetentTeacherProtocol:
    def test_b3_runs(self):
        sim = build_sim()
        outcome = federated_incompetent_teacher(
            sim, IncompetentTeacherConfig(train=CONFIG), num_rounds=2
        )
        assert outcome.rounds_run == 2
        assert accuracy(outcome.global_model, sim.fed_data.test_set) > 0.4

    def test_b3_does_not_reinitialise(self):
        """B3 adjusts the trained model: accuracy immediately after one
        round should stay close to the pretrained level."""
        sim = build_sim()
        pre_acc = sim.server.evaluate_global()[1]
        outcome = federated_incompetent_teacher(
            sim, IncompetentTeacherConfig(beta=0.2, train=CONFIG), num_rounds=1
        )
        assert outcome.round_accuracies[0] > pre_acc - 0.25


class TestDeterminism:
    def test_goldfish_protocol_deterministic(self):
        a = federated_goldfish(build_sim(seed=4), GOLDFISH, num_rounds=2)
        b = federated_goldfish(build_sim(seed=4), GOLDFISH, num_rounds=2)
        np.testing.assert_allclose(a.round_accuracies, b.round_accuracies)


def mlp_factory():
    return MLP(16, 3, np.random.default_rng(42))


class TestGoldfishTeacherInference:
    """The frozen teacher is evaluated once per client per request: round 0
    carries its state, later rounds carry its logits."""

    def build(self, vectorize=False):
        clients, test = make_blob_federation(3, per_client=30, test_size=60, seed=0)
        fed = FederatedDataset(client_datasets=clients, test_set=test)
        sim = FederatedSimulation(mlp_factory, fed, FedAvgAggregator(), CONFIG,
                                  seed=0, vectorize=vectorize)
        sim.run(3)
        sim.clients[0].request_deletion(np.arange(5))
        return sim

    @pytest.mark.parametrize("vectorize", [False, True])
    def test_one_teacher_pass_per_client_over_three_rounds(self, monkeypatch, vectorize):
        from repro.unlearning import goldfish

        passes = []
        real_predict_logits = goldfish.predict_logits

        def counting_predict_logits(model, images, *args, **kwargs):
            passes.append(len(images))
            return real_predict_logits(model, images, *args, **kwargs)

        monkeypatch.setattr(goldfish, "predict_logits", counting_predict_logits)
        sim = self.build(vectorize)
        rounds = []
        run_tasks = sim.backend.run_tasks

        def recording_run_tasks(tasks):
            rounds.append(list(tasks))
            return run_tasks(tasks)

        # Goldfish tasks run one client each, vectorized or not, so the
        # backend sees the round's tasks themselves.
        monkeypatch.setattr(sim.backend, "run_tasks", recording_run_tasks)
        retained = [len(client.active_dataset) for client in sim.clients]
        federated_goldfish(sim, GOLDFISH, num_rounds=3)

        assert sorted(passes) == retained == [25, 30, 30]
        assert len(rounds) == 3
        for task in rounds[0]:
            assert task.teacher_state is not None and task.teacher_logits is None
        for tasks in rounds[1:]:
            for task, size in zip(tasks, retained):
                assert task.teacher_state is None
                assert task.teacher_logits.shape == (size, 3)
        # The logits never outlive the call.
        for client in sim.clients:
            assert not hasattr(client, "teacher_logits")

    def test_serial_pool_and_vectorized_fallback_stay_bit_identical(self):
        serial = federated_goldfish(self.build(), GOLDFISH, num_rounds=3)
        pooled = federated_goldfish(self.build(), GOLDFISH, num_rounds=3,
                                    backend="pool:2")
        # A vectorized simulation runs its Goldfish tasks one client each,
        # and says so, alone and across the pool's workers.
        vec_sim = self.build(vectorize=True)
        before = vec_sim.vectorize_report()
        fallback = federated_goldfish(vec_sim, GOLDFISH, num_rounds=3)
        after = vec_sim.vectorize_report()
        assert after["rounds_vectorized"] == before["rounds_vectorized"]
        assert after["rounds_fallback"] == before["rounds_fallback"] + 3
        key = "no vectorized implementation for _GoldfishClientTask"
        assert after["fallback_reasons"][key] == 3
        pooled_fallback = federated_goldfish(self.build(vectorize=True), GOLDFISH,
                                             num_rounds=3, backend="pool:2")
        for other in (pooled, fallback, pooled_fallback):
            assert other.round_accuracies == serial.round_accuracies
            for key, value in serial.global_model.state_dict().items():
                np.testing.assert_array_equal(
                    value, other.global_model.state_dict()[key]
                )

    def test_later_rounds_account_the_logits_they_carry(self):
        sim = self.build()
        before = sim.transport.bytes_down
        federated_goldfish(sim, GOLDFISH, num_rounds=2)
        state_bytes = sum(v.nbytes for v in sim.server.global_state.values())
        logits_bytes = sum(len(c.dataset) for c in sim.clients) * 3 * 8
        # Round 0: student + teacher per client; round 1: student + logits.
        assert sim.transport.bytes_down - before == (
            3 * 2 * state_bytes + 3 * state_bytes + logits_bytes
        )

    def test_task_refuses_misaligned_logits(self):
        sim = self.build()
        client = sim.clients[0]
        task = _GoldfishClientTask(
            task_id=client.client_id,
            model_factory=mlp_factory,
            model_state=client.model.state_dict(),
            teacher_state=None,
            dataset=client.dataset,
            indices=client.retain_indices,
            forget_indices=client.forget_indices,
            config=GOLDFISH,
            rng_state=capture_rng(client.rng),
            teacher_logits=np.zeros((len(client.active_dataset) + 1, 3)),
        )
        with pytest.raises(ValueError, match="teacher_logits holds 26 rows"):
            task.run()


class TestGoldfishOptimisationModule:
    """Eq. 7's early stopper and Eq. 11's adaptive temperature through the
    federated flow: clients stop after different epoch counts, and the
    result does not depend on how the rounds were executed."""

    CONFIG = GoldfishConfig(
        loss=GoldfishLossConfig(),
        train=TrainConfig(epochs=4, batch_size=10, learning_rate=0.15),
        early_stop=EarlyStopConfig(delta=0.3, mode="last", enabled=True),
        adaptive_temperature=True,
    )
    ROUNDS = 2

    def run(self, vectorize=False, backend=None):
        clients, test = make_blob_federation(3, per_client=30, test_size=60, seed=0)
        fed = FederatedDataset(client_datasets=clients, test_set=test)
        sim = FederatedSimulation(mlp_factory, fed, FedAvgAggregator(), CONFIG,
                                  seed=0, vectorize=vectorize)
        sim.run(3)
        sim.clients[0].request_deletion(np.arange(5))
        outcome = federated_goldfish(sim, self.CONFIG, num_rounds=self.ROUNDS,
                                     backend=backend)
        return sim, outcome

    def test_stopper_fires_and_every_path_agrees(self):
        serial_sim, serial = self.run()
        budget = self.ROUNDS * self.CONFIG.train.epochs * len(serial_sim.clients)
        assert 0 < serial.local_epochs_total < budget
        for sim, other in (self.run(backend="pool:2"), self.run(vectorize=True)):
            assert other.local_epochs_total == serial.local_epochs_total
            assert other.round_accuracies == serial.round_accuracies
            for key, value in serial.global_model.state_dict().items():
                np.testing.assert_array_equal(
                    value, other.global_model.state_dict()[key]
                )
            for a, b in zip(serial_sim.clients, sim.clients):
                assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestClientTasksMatchTheirUnlearners:
    """A protocol's unlearning client task trains exactly what the
    unlearner does in-process: the same float64 state, history and RNG
    stream, and (Goldfish) the same teacher logits."""

    FACTORY = RegistryModelFactory(name="mlp", num_classes=3, in_channels=1, image_size=4)
    TRAIN = TrainConfig(epochs=2, batch_size=8, learning_rate=0.05)

    def test_goldfish_task_and_unlearner_agree(self):
        config = GoldfishConfig(loss=GoldfishLossConfig(), train=self.TRAIN)
        teacher_state = self.FACTORY().state_dict()
        for member in range(2):
            task = _GoldfishClientTask(
                task_id=member,
                model_factory=self.FACTORY,
                model_state=self.FACTORY().state_dict(),
                teacher_state=teacher_state,
                dataset=make_blobs(num_samples=24, shape=(1, 4, 4), seed=member),
                indices=np.arange(6, 24),
                forget_indices=np.arange(6),
                config=config,
                rng_state=capture_rng(np.random.default_rng(member)),
            )
            one = task.run()
            student, teacher = self.FACTORY(), self.FACTORY()
            teacher.load_state_dict(teacher_state)
            rng = restore_rng(task.rng_state)
            other = GoldfishUnlearner(config).unlearn(
                student, teacher, task.dataset.subset(task.indices), task.forget_set(), rng
            )
            assert one.extra["teacher_logits"].dtype == np.float64
            np.testing.assert_array_equal(one.extra["teacher_logits"], other.teacher_logits)
            assert len(one.history) == len(other.history)
            assert one.rng_state == rng.bit_generator.state
            for key, value in one.state.items():
                assert value.dtype == np.float64, key
                np.testing.assert_array_equal(value, student.state_dict()[key])

    def test_incompetent_teacher_task_and_unlearner_agree(self):
        config = IncompetentTeacherConfig(train=self.TRAIN)
        states = [self.FACTORY().state_dict() for _ in range(3)]
        task = _IncompetentClientTask(
            task_id=0,
            model_factory=self.FACTORY,
            model_state=states[0],
            competent_state=states[1],
            incompetent_state=states[2],
            dataset=make_blobs(num_samples=30, shape=(1, 4, 4)),
            indices=np.arange(6, 30),
            forget_indices=np.arange(6),
            config=config,
            rng_state=capture_rng(np.random.default_rng(0)),
        )
        one = task.run()
        models = [self.FACTORY() for _ in range(3)]
        for model, state in zip(models, states):
            model.load_state_dict(state)
        rng = restore_rng(task.rng_state)
        IncompetentTeacherUnlearner(config).unlearn(
            *models, task.dataset.subset(task.indices), task.forget_set(), rng
        )
        assert len(one.history) == 2
        assert one.rng_state == rng.bit_generator.state
        for key, value in one.state.items():
            assert value.dtype == np.float64, key
            np.testing.assert_array_equal(value, models[0].state_dict()[key])
