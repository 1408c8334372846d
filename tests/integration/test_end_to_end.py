"""End-to-end behavioural tests: the paper's headline claims at micro scale.

These are slower than unit tests (several seconds each) but still small:
they train real (LeNet) models on the synthetic datasets and check the
*shape* of the paper's results — backdoors implant into the origin model,
Goldfish removes them while preserving accuracy, and the unlearned model
behaves like the retrained-from-scratch reference.
"""

import numpy as np
import pytest

from repro.experiments import SMOKE, runner
from repro.experiments.common import backdoor_spec

SCALE = SMOKE.with_overrides(
    train_size=600, test_size=250, pretrain_rounds=8, local_epochs=2,
    unlearn_rounds=5, batch_size=50,
)


@pytest.fixture(scope="module")
def pipeline():
    """One pretrained backdoored federation shared by the tests."""
    prepared = runner.prepare(backdoor_spec("mnist", 0.08), SCALE, seed=0)
    setup, origin = prepared.scenario, prepared.origin
    origin_metrics = runner.evaluate_model(origin, setup)

    outcomes = {}
    for method in ("ours", "b1", "b3"):
        outcome = runner.run_method(prepared, method, SCALE)
        outcomes[method] = (outcome, runner.evaluate_model(outcome.global_model, setup))
    prepared.snapshot.restore(setup.sim)
    return setup, origin, origin_metrics, outcomes


class TestBackdoorLifecycle:
    def test_origin_model_is_backdoored(self, pipeline):
        _, _, origin_metrics, _ = pipeline
        assert origin_metrics["backdoor"] > 50.0

    def test_origin_model_is_accurate(self, pipeline):
        _, _, origin_metrics, _ = pipeline
        assert origin_metrics["acc"] > 75.0

    def test_goldfish_removes_backdoor(self, pipeline):
        _, _, origin_metrics, outcomes = pipeline
        _, metrics = outcomes["ours"]
        assert metrics["backdoor"] < origin_metrics["backdoor"] / 2
        assert metrics["backdoor"] < 25.0

    def test_goldfish_preserves_accuracy(self, pipeline):
        _, _, origin_metrics, outcomes = pipeline
        _, metrics = outcomes["ours"]
        assert metrics["acc"] > origin_metrics["acc"] - 15.0

    def test_b1_reference_is_clean(self, pipeline):
        _, _, _, outcomes = pipeline
        _, metrics = outcomes["b1"]
        assert metrics["backdoor"] < 25.0

    def test_goldfish_behaves_like_b1(self, pipeline):
        """Tables VII–IX shape: ours close to retrain-from-scratch."""
        setup, _, _, outcomes = pipeline
        from repro.eval import compare_models
        ours_model = outcomes["ours"][0].global_model
        b1_model = outcomes["b1"][0].global_model
        report = compare_models(ours_model, b1_model, setup.test_set)
        assert report.jsd < 0.2  # bounded by ln 2 ≈ 0.69; close = small
        assert report.l2 < 0.2

    def test_deletion_physically_removed(self, pipeline):
        setup, _, _, _ = pipeline
        # After restore in the fixture the data is back — but during the
        # run the flows finalized deletions. Verify the mechanism directly:
        setup.register_deletion()
        client = setup.sim.clients[0]
        before = len(client.dataset)
        client.finalize_deletion()
        assert len(client.dataset) == before - len(setup.poison_indices)


class TestCrossMethodShape:
    def test_all_unlearned_models_beat_origin_on_backdoor(self, pipeline):
        _, _, origin_metrics, outcomes = pipeline
        for method, (_, metrics) in outcomes.items():
            assert metrics["backdoor"] < origin_metrics["backdoor"], method

    def test_all_methods_keep_usable_accuracy(self, pipeline):
        _, _, _, outcomes = pipeline
        for method, (_, metrics) in outcomes.items():
            assert metrics["acc"] > 50.0, method


class TestShardedDeletionIntegration:
    def test_sharded_client_recovers_after_deletion(self):
        """Fig. 7 shape: deletion at a mid-round; the sharded client
        retrains only affected shards and accuracy recovers."""
        from repro.data import make_dataset
        from repro.experiments.spec import model_factory_for, train_config
        from repro.training import evaluate
        from repro.unlearning import ShardedClientTrainer

        train_set, test_set = make_dataset("mnist", 500, 200, seed=3)
        factory = model_factory_for(train_set, "lenet5")
        config = train_config(SCALE, epochs=1)
        trainer = ShardedClientTrainer(train_set, 5, factory,
                                       np.random.default_rng(0))
        for _ in range(3):
            trainer.train_all(config)
        _, acc_before = evaluate(trainer.local_model(), test_set)

        victim = np.random.default_rng(1).choice(500, 25, replace=False)
        report = trainer.delete(victim, config)
        assert 1 <= len(report.affected_shards) <= 5
        for _ in range(2):
            trainer.train_all(config)
        _, acc_after = evaluate(trainer.local_model(), test_set)
        assert acc_after > acc_before - 0.1


class TestAggregationIntegration:
    def test_adaptive_aggregation_helps_under_heterogeneity(self):
        """Fig. 8 shape: with heterogeneous clients, the adaptive
        aggregator reaches higher early-round accuracy than FedAvg."""
        from repro.data import make_dataset, make_federated
        from repro.federated import FederatedSimulation, make_aggregator
        from repro.experiments.spec import model_factory_for, train_config

        train_set, test_set = make_dataset("mnist", 800, 300, seed=2)
        factory = model_factory_for(train_set, "lenet5")
        config = train_config(SCALE)

        def run(name, seed):
            fed = make_federated(train_set, test_set, 5,
                                 np.random.default_rng(seed),
                                 strategy="heterogeneous")
            agg = make_aggregator(name, test_set=test_set, model_factory=factory)
            sim = FederatedSimulation(factory, fed, agg, config, seed=7)
            return sim.run(4).accuracies

        # Average over a few partitions to damp seed noise. The FedAvg
        # baseline is the uniform-mean variant (see fig8 module rationale).
        gaps = []
        for seed in (11, 12, 13):
            fedavg = run("fedavg_uniform", seed)
            adaptive = run("adaptive", seed)
            gaps.append(np.mean(adaptive[:3]) - np.mean(fedavg[:3]))
        assert np.mean(gaps) > 0.0  # adaptive wins the early rounds
