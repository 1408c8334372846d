#!/usr/bin/env python
"""Privacy audit of an unlearning run: MIA, certification, relearn time.

Did the model *really* forget? This example audits a Goldfish unlearning
run with every instrument in ``repro.eval``. The forget set is made
*distinctive* — client 0's deleted samples carry a backdoor trigger with
flipped labels — so a model that retains them is measurably different
from one that forgot:

1. train a federation where client 0 holds backdoored samples;
2. unlearn them with Goldfish, and retrain from scratch for reference;
3. audit: confidence-threshold membership attack, empirical (ε̂, δ)
   indistinguishability against the retrained reference, relearn-time
   stress test, and the backdoor success rate itself.

Run:  python examples/privacy_audit.py
"""

import numpy as np

from repro.data import (
    BackdoorAttack,
    TriggerPattern,
    make_federated,
    select_attack_target,
    synthetic_mnist,
)
from repro.eval import certify_outputs, membership_attack, relearn_time
from repro.experiments.common import model_factory_for
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.training import TrainConfig, evaluate
from repro.unlearning import (
    GoldfishConfig,
    GoldfishLossConfig,
    federated_goldfish,
    federated_retrain,
)


def main() -> None:
    # --- 1. setup: poison client 0's to-be-forgotten samples -----------------
    train_set, test_set = synthetic_mnist(train_size=1000, test_size=400, seed=0)
    fed = make_federated(train_set, test_set, num_clients=5,
                         rng=np.random.default_rng(0))
    trigger = TriggerPattern(size=7, value=6.0)
    attack = BackdoorAttack(trigger,
                            target_label=select_attack_target(train_set, trigger))
    client0_data = fed.client_datasets[0]
    forget_indices = np.sort(np.random.default_rng(2).choice(
        len(client0_data), len(client0_data) // 4, replace=False))
    fed.client_datasets[0] = attack.poison(client0_data, forget_indices)

    factory = model_factory_for(train_set, "lenet5")
    config = TrainConfig(epochs=3, batch_size=50, learning_rate=0.02)

    def pretrained_simulation():
        sim = FederatedSimulation(factory, fed, FedAvgAggregator(), config, seed=1)
        sim.run(6)
        return sim

    sim = pretrained_simulation()
    origin = sim.global_model()
    _, origin_accuracy = evaluate(origin, test_set)
    print(f"origin accuracy: {origin_accuracy:.3f}, backdoor success "
          f"{attack.success_rate(origin, test_set):.3f}")

    forget_set = sim.clients[0].dataset.subset(forget_indices)
    holdout = test_set.subset(np.arange(len(forget_set)))

    # --- 2. unlearn (ours) and retrain (reference) ---------------------------
    sim.clients[0].request_deletion(forget_indices)
    goldfish = GoldfishConfig(
        loss=GoldfishLossConfig(temperature=3.0, mu_c=0.25, mu_d=1.0),
        train=config,
    )
    unlearned = federated_goldfish(sim, goldfish, num_rounds=3).global_model

    reference_sim = pretrained_simulation()
    reference_sim.clients[0].request_deletion(forget_indices)
    reference = federated_retrain(reference_sim, config, num_rounds=3).global_model

    models = (("origin", origin), ("unlearned", unlearned))
    print("\nbackdoor success after unlearning: "
          f"{attack.success_rate(unlearned, test_set):.3f} "
          f"(reference retrain: {attack.success_rate(reference, test_set):.3f})")

    # --- 3a. confidence-threshold membership attack --------------------------
    print("\n--- membership inference (confidence threshold) ---")
    for name, model in models:
        report = membership_attack(model, forget_set, holdout)
        print(f"{name:10s} advantage {report.advantage:+.3f}  "
              f"auc {report.auc:.3f}")

    # --- 3b. (ε̂, δ) indistinguishability vs the retrained reference ----------
    print("\n--- empirical certification against retrain ---")
    for name, model in models:
        certification = certify_outputs(model, reference, test_set, delta=0.05)
        print(f"{name:10s} eps_hat {certification.epsilon_hat:.2f}  "
              f"mean JSD {certification.mean_jsd:.4f}")

    # --- 3c. relearn-time stress test on the (poisoned) forget set -----------
    print("\n--- relearn time on the forget set ---")
    for name, model in models:
        report = relearn_time(factory, model.state_dict(), forget_set, config,
                              loss_threshold=0.15, max_epochs=20,
                              rng=np.random.default_rng(11))
        flag = "suspicious" if report.suspicious() else "ok"
        print(f"{name:10s} epochs {report.unlearned_epochs} "
              f"(fresh model: {report.fresh_epochs})  "
              f"speedup x{report.speedup:.1f}  [{flag}]")


if __name__ == "__main__":
    main()
