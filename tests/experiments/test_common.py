"""The shared experiment plumbing (backdoor scenario, snapshots, dispatch)."""

import numpy as np
import pytest

from repro.experiments import SMOKE, runner
from repro.experiments.common import (
    DEFAULT_TRIGGER,
    SimulationSnapshot,
    backdoor_spec,
    goldfish_config,
)
from repro.experiments.spec import build_scenario, model_factory_for, train_config

TINY = SMOKE.with_overrides(
    train_size=120, test_size=60, pretrain_rounds=1, local_epochs=1,
    unlearn_rounds=1, batch_size=20,
)


@pytest.fixture(scope="module")
def setup():
    return build_scenario(backdoor_spec("mnist", 0.06), TINY, seed=0)


class TestBuildFederation:
    def test_partition_and_poison(self, setup):
        assert setup.sim.fed_data.num_clients == TINY.num_clients
        poisoned = setup.sim.clients[0].dataset
        # poisoned samples carry the trigger and the target label
        idx = setup.poison_indices
        assert (poisoned.labels[idx] == setup.attack.target_label).all()
        assert (
            poisoned.images[idx][..., -DEFAULT_TRIGGER.size:, -DEFAULT_TRIGGER.size:]
            == DEFAULT_TRIGGER.value
        ).all()

    def test_poison_count_matches_rate(self, setup):
        expected = int(round(0.06 * TINY.train_size))
        assert len(setup.poison_indices) == expected

    def test_rate_too_large_rejected(self):
        with pytest.raises(ValueError):
            build_scenario(backdoor_spec("mnist", 0.5), TINY)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            build_scenario(backdoor_spec("svhn", 0.06), TINY)

    def test_train_config_from_scale(self):
        config = train_config(TINY)
        assert config.epochs == TINY.local_epochs
        assert config.batch_size == TINY.batch_size

    def test_model_factory_consistent(self):
        from repro.data import make_dataset
        train_set, _ = make_dataset("mnist", 50, 20)
        factory = model_factory_for(train_set, "lenet5")
        a, b = factory(), factory()
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_allclose(pa.data, pb.data)


class TestSnapshot:
    def test_restore_models_and_data(self):
        prepared = runner.prepare(backdoor_spec("mnist", 0.06), TINY, seed=1)
        setup = prepared.scenario
        snapshot = SimulationSnapshot.capture(setup.sim)
        runner.run_method(prepared, "b1", TINY)
        # deletion was finalized: data shrank
        assert len(setup.sim.clients[0].dataset) < TINY.train_size // TINY.num_clients + 1
        snapshot.restore(setup.sim)
        assert not setup.sim.clients[0].has_pending_deletion
        # dataset restored, so a second registration works
        setup.register_deletion()
        assert setup.sim.clients[0].has_pending_deletion


class TestMethodDispatch:
    @pytest.fixture(scope="class")
    def prepared(self):
        return runner.prepare(backdoor_spec("mnist", 0.06), TINY, seed=2)

    @pytest.mark.parametrize("method", ["ours", "b1", "b2", "b3"])
    def test_all_methods_run(self, prepared, method):
        outcome = runner.run_method(prepared, method, TINY)
        assert outcome.rounds_run == TINY.unlearn_rounds
        metrics = runner.evaluate_model(outcome.global_model, prepared.scenario)
        assert 0 <= metrics["acc"] <= 100
        assert 0 <= metrics["backdoor"] <= 100

    def test_unknown_method(self, prepared):
        with pytest.raises(ValueError):
            runner.run_method(prepared, "magic", TINY)


class TestGoldfishConfigHelper:
    def test_paper_defaults(self):
        config = goldfish_config(TINY)
        assert config.loss.temperature == 3.0
        assert config.loss.mu_c == 0.25
        assert config.loss.mu_d == 1.0

    def test_ablation_toggles(self):
        config = goldfish_config(TINY, use_confusion=False, use_distillation=False)
        assert not config.loss.use_confusion
        assert not config.loss.use_distillation

    def test_hard_loss_override(self):
        config = goldfish_config(TINY, hard_loss="focal")
        assert config.loss.hard_loss == "focal"
