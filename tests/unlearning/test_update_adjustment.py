"""FedEraser and FedRecovery: client-level update-adjustment unlearning."""

import numpy as np
import pytest

from repro.data.dataset import FederatedDataset
from repro.federated import (
    ClientUpdate,
    FedAvgAggregator,
    FederatedSimulation,
    RoundHistoryStore,
    attach_history,
    state_math,
)
from repro.nn.models import MLP
from repro.training.config import TrainConfig
from repro.training.evaluation import evaluate
from repro.unlearning import (
    FedEraser,
    FedEraserConfig,
    FedRecovery,
)

from ..conftest import make_blob_federation


@pytest.fixture(scope="module")
def trained_federation():
    """A 4-client federation trained 4 rounds with history retained."""
    clients, test = make_blob_federation(
        num_clients=4, per_client=18, test_size=30, seed=3
    )
    fed = FederatedDataset(client_datasets=clients, test_set=test)
    factory = lambda: MLP(16, 3, np.random.default_rng(7))
    sim = FederatedSimulation(
        model_factory=factory,
        fed_data=fed,
        aggregator=FedAvgAggregator(),
        train_config=TrainConfig(epochs=2, batch_size=6, learning_rate=0.05),
        seed=11,
    )
    store = attach_history(sim, RoundHistoryStore())
    initial_state = sim.server.initial_state
    sim.run(4)
    return {
        "sim": sim,
        "store": store,
        "initial_state": initial_state,
        "clients": clients,
        "test": test,
        "factory": factory,
    }


class TestFedEraserConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FedEraserConfig(calibration_epochs=0)
        with pytest.raises(ValueError):
            FedEraserConfig(learning_rate=0.0)

    def test_train_config_conversion(self):
        config = FedEraserConfig(calibration_epochs=2, learning_rate=0.03)
        tc = config.train_config()
        assert tc.epochs == 2
        assert tc.learning_rate == 0.03


class TestFedEraser:
    def test_unlearn_produces_usable_model(self, trained_federation, rng):
        env = trained_federation
        eraser = FedEraser(
            env["factory"],
            FedEraserConfig(calibration_epochs=1, learning_rate=0.05, batch_size=6),
        )
        unlearned, report = eraser.unlearn(
            env["store"], env["initial_state"], env["clients"],
            forget_client_id=0, rng=rng,
        )
        assert report.rounds_replayed == 4
        assert report.clients_per_round == [3, 3, 3, 3]
        assert report.calibration_epochs_run == 4 * 3
        model = env["factory"]()
        model.load_state_dict(unlearned)
        _, accuracy = evaluate(model, env["test"])
        # Remaining clients cover all classes, so the calibrated model
        # must still classify far above chance (1/3).
        assert accuracy > 0.55

    def test_unlearned_differs_from_final_global(self, trained_federation, rng):
        env = trained_federation
        eraser = FedEraser(env["factory"], FedEraserConfig(batch_size=6))
        unlearned, _ = eraser.unlearn(
            env["store"], env["initial_state"], env["clients"], 1, rng
        )
        assert state_math.l2_distance(unlearned, env["sim"].server.global_state) > 1e-3

    def test_empty_history_rejected(self, trained_federation, rng):
        env = trained_federation
        eraser = FedEraser(env["factory"])
        with pytest.raises(ValueError, match="empty"):
            eraser.unlearn(
                RoundHistoryStore(), env["initial_state"], env["clients"], 0, rng
            )

    def test_unknown_client_rejected(self, trained_federation, rng):
        env = trained_federation
        eraser = FedEraser(env["factory"])
        with pytest.raises(ValueError, match="never appears"):
            eraser.unlearn(
                env["store"], env["initial_state"], env["clients"], 42, rng
            )

    def test_missing_dataset_rejected(self, trained_federation, rng):
        env = trained_federation
        eraser = FedEraser(env["factory"], FedEraserConfig(batch_size=6))
        with pytest.raises(IndexError, match="no dataset"):
            eraser.unlearn(
                env["store"], env["initial_state"], env["clients"][:2], 0, rng
            )


class TestFedRecovery:
    def test_subtraction_without_noise_is_deterministic(
        self, trained_federation
    ):
        env = trained_federation
        recovery = FedRecovery()
        final = env["sim"].server.global_state
        out1, report1 = recovery.unlearn(env["store"], final, 0)
        out2, report2 = recovery.unlearn(env["store"], final, 0)
        assert state_math.l2_distance(out1, out2) == 0.0
        assert report1.influence_l2 == pytest.approx(report2.influence_l2)

    def test_residual_weights_sum_to_one(self, trained_federation):
        env = trained_federation
        _, report = FedRecovery().unlearn(
            env["store"], env["sim"].server.global_state, 2
        )
        assert sum(report.residual_weights) == pytest.approx(1.0)
        assert all(w >= 0 for w in report.residual_weights)
        assert report.rounds_used == 4

    def test_influence_actually_subtracted(self, trained_federation):
        env = trained_federation
        final = env["sim"].server.global_state
        unlearned, report = FedRecovery().unlearn(env["store"], final, 0)
        assert report.influence_l2 > 0.0
        assert state_math.l2_distance(unlearned, final) == pytest.approx(
            report.influence_l2, rel=1e-9
        )

    def test_empty_history_rejected(self, trained_federation):
        env = trained_federation
        with pytest.raises(ValueError, match="empty"):
            FedRecovery().unlearn(
                RoundHistoryStore(), env["sim"].server.global_state, 0
            )

    def test_unknown_client_rejected(self, trained_federation):
        env = trained_federation
        with pytest.raises(ValueError, match="never appears"):
            FedRecovery().unlearn(
                env["store"], env["sim"].server.global_state, 42
            )


def vec(*values):
    return {"w": np.array(values, dtype=np.float64)}


def hand_history(rounds):
    """A store from ``(before, after, {client_id: (state, num_samples)})``
    triples, one per round; ``after`` may be ``None``."""
    store = RoundHistoryStore()
    for index, (before, after, uploads) in enumerate(rounds):
        store.record_round(
            index,
            before,
            [
                ClientUpdate(state=state, num_samples=n, client_id=client_id)
                for client_id, (state, n) in uploads.items()
            ],
            global_after=after,
        )
    return store


class TestFedRecoveryArithmetic:
    """FedRecovery on hand-built histories, where every number it
    computes can be written down."""

    @pytest.mark.parametrize("client, expected", [(0, (0.0, 3.0)), (1, (0.5, 0.0))])
    def test_one_round_removes_exactly_the_weighted_delta(self, client, expected):
        # FedAvg of [2, 0] (1 sample) and [0, 4] (3 samples) is [0.5, 3].
        store = hand_history(
            [(vec(0, 0), vec(0.5, 3), {0: (vec(2, 0), 1), 1: (vec(0, 4), 3)})]
        )
        unlearned, report = FedRecovery().unlearn(store, vec(0.5, 3), client)
        np.testing.assert_allclose(unlearned["w"], expected, atol=1e-15)
        assert report.rounds_used == 1 and report.residual_weights == [1.0]

    def test_weights_are_shares_of_the_squared_global_movement(self):
        rounds = [
            (vec(0, 0), vec(step, 0), {0: (vec(step, 0), 1)}) for step in (1, 2, 3)
        ]
        _, report = FedRecovery().unlearn(hand_history(rounds), vec(6, 0), 0)
        np.testing.assert_allclose(report.residual_weights, [1 / 14, 4 / 14, 9 / 14])

    def test_a_global_model_that_never_moved_weights_rounds_uniformly(self):
        rounds = [(vec(1, 1), vec(1, 1), {0: (vec(2, 1), 1)}) for _ in range(4)]
        _, report = FedRecovery().unlearn(hand_history(rounds), vec(1, 1), 0)
        assert report.residual_weights == [0.25] * 4

    def test_without_global_after_the_first_clients_upload_measures_movement(self):
        rounds = [
            (vec(0, 0), None, {3: (vec(1, 0), 1), 7: (vec(9, 9), 1)}),
            (vec(0, 0), None, {3: (vec(0, 2), 1), 7: (vec(9, 9), 1)}),
        ]
        _, report = FedRecovery().unlearn(hand_history(rounds), vec(0, 0), 7)
        # Client 3 (the lowest id) moved 1 then 2: weights 1/5 and 4/5.
        np.testing.assert_allclose(report.residual_weights, [0.2, 0.8])

    def test_only_rounds_the_client_joined_are_subtracted(self):
        rounds = [
            (vec(0, 0), vec(1, 0), {0: (vec(1, 0), 1), 1: (vec(1, 0), 1)}),
            (vec(1, 0), vec(1, 2), {0: (vec(1, 2), 1)}),
            (vec(1, 2), vec(2, 2), {0: (vec(2, 2), 1), 1: (vec(2, 2), 1)}),
        ]
        unlearned, report = FedRecovery().unlearn(hand_history(rounds), vec(2, 2), 1)
        assert report.rounds_used == 2
        weights = report.residual_weights  # movements 1, 2, 1: [1/6, 4/6, 1/6]
        np.testing.assert_allclose(weights, [1 / 6, 4 / 6, 1 / 6])
        # Half of each joined round's delta [1, 0], weighted by its round.
        influence = 0.5 * (weights[0] + weights[2]) * np.array([1.0, 0.0])
        np.testing.assert_allclose(unlearned["w"], [2, 2] - influence)
        assert report.influence_l2 == pytest.approx(np.linalg.norm(influence))

    @pytest.mark.parametrize("samples", [1, 3, 9])
    def test_influence_scales_with_the_clients_sample_share(self, samples):
        store = hand_history(
            [(vec(0, 0), vec(1, 1), {0: (vec(4, 0), samples), 1: (vec(0, 0), 3)})]
        )
        _, report = FedRecovery().unlearn(store, vec(1, 1), 0)
        assert report.influence_l2 == pytest.approx(4.0 * samples / (samples + 3))

    def test_neither_the_history_nor_the_final_model_is_mutated(self):
        store = hand_history(
            [(vec(0, 0), vec(1, 1), {0: (vec(2, 2), 1), 1: (vec(0, 0), 1)})]
        )
        final = vec(1, 1)
        unlearned, _ = FedRecovery().unlearn(store, final, 0)
        np.testing.assert_array_equal(final["w"], [1, 1])
        snapshot = store.snapshot_at(0)
        np.testing.assert_array_equal(snapshot.client_states[0]["w"], [2, 2])
        np.testing.assert_array_equal(snapshot.global_before["w"], [0, 0])
        assert not np.shares_memory(unlearned["w"], final["w"])


class TestEraserRemovesPoisonedClient:
    def test_erasing_a_label_noise_client_recovers_accuracy(self, rng):
        """Behavioural check of FedEraser's promise: after a client with
        fully shuffled labels is erased, the calibrated model's test
        accuracy recovers toward the clean-retrain level and beats the
        contaminated final global model."""
        clients, test = make_blob_federation(
            num_clients=3, per_client=20, test_size=30, seed=5
        )
        # Poison client 0: permute its labels so it actively fights the
        # other clients' (clean) signal.
        poisoned = clients[0]
        shuffled = np.random.default_rng(8).permutation(poisoned.labels)
        clients[0] = type(poisoned)(
            images=poisoned.images,
            labels=shuffled,
            num_classes=poisoned.num_classes,
            name="poisoned",
        )
        fed = FederatedDataset(client_datasets=clients, test_set=test)
        factory = lambda: MLP(16, 3, np.random.default_rng(21))
        config = TrainConfig(epochs=2, batch_size=5, learning_rate=0.05)

        sim = FederatedSimulation(factory, fed, FedAvgAggregator(), config, seed=2)
        store = attach_history(sim, RoundHistoryStore())
        initial = sim.server.initial_state
        sim.run(3)
        final_model = sim.global_model()
        _, final_accuracy = evaluate(final_model, test)

        eraser = FedEraser(
            factory, FedEraserConfig(calibration_epochs=1, batch_size=5,
                                     learning_rate=0.05),
        )
        unlearned, _ = eraser.unlearn(store, initial, clients, 0, rng)
        model = factory()
        model.load_state_dict(unlearned)
        _, unlearned_accuracy = evaluate(model, test)

        assert unlearned_accuracy >= final_accuracy - 0.02
