#!/usr/bin/env python
"""Quickstart: federated training, a deletion request, Goldfish unlearning.

Walks the core public API end to end in about a minute on a laptop CPU:

1. build a synthetic MNIST federation of 5 clients;
2. train a global LeNet-5 with FedAvg;
3. client 0 requests deletion of 10% of its data;
4. run the Goldfish unlearning protocol (Algorithm 1);
5. verify the unlearned model still classifies well.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.data import make_federated, synthetic_mnist
from repro.experiments.spec import model_factory_for
from repro.federated import FederatedSimulation, FedAvgAggregator
from repro.training import TrainConfig, evaluate
from repro.unlearning import GoldfishConfig, GoldfishLossConfig, federated_goldfish


def main() -> None:
    # --- 1. data -----------------------------------------------------------
    train_set, test_set = synthetic_mnist(train_size=1000, test_size=400, seed=0)
    fed = make_federated(train_set, test_set, num_clients=5,
                         rng=np.random.default_rng(0))
    print(f"federation: {fed.num_clients} clients, sizes {fed.sizes().tolist()}")

    # --- 2. federated training ---------------------------------------------
    factory = model_factory_for(train_set, "lenet5")
    config = TrainConfig(epochs=3, batch_size=50, learning_rate=0.02, momentum=0.9)
    sim = FederatedSimulation(factory, fed, FedAvgAggregator(), config, seed=1)
    history = sim.run(6)
    print(f"pretrained global accuracy: {history.final_accuracy:.3f}")

    # --- 3. deletion request -----------------------------------------------
    client = sim.clients[0]
    num_delete = len(client.dataset) // 10
    forget_indices = np.random.default_rng(2).choice(
        len(client.dataset), num_delete, replace=False
    )
    client.request_deletion(forget_indices)
    print(f"client 0 requests deletion of {num_delete} samples")

    # --- 4. Goldfish unlearning --------------------------------------------
    goldfish = GoldfishConfig(
        loss=GoldfishLossConfig(temperature=3.0, mu_c=0.25, mu_d=1.0),
        train=config,
    )
    outcome = federated_goldfish(sim, goldfish, num_rounds=3)
    print(f"unlearning took {outcome.wall_seconds:.1f}s "
          f"({outcome.local_epochs_total} local epochs)")

    # --- 5. verify -----------------------------------------------------------
    loss, accuracy = evaluate(outcome.global_model, test_set)
    print(f"unlearned global accuracy: {accuracy:.3f} (loss {loss:.3f})")
    print(f"round accuracies: {[f'{a:.3f}' for a in outcome.round_accuracies]}")
    assert len(client.dataset) == 200 - num_delete, "deleted data must be gone"
    print("deleted data physically removed from client 0 — done.")


if __name__ == "__main__":
    main()
