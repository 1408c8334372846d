#!/usr/bin/env python
"""Adaptive-weight aggregation under client heterogeneity (paper Fig. 8/9).

Clients receive local datasets with strongly skewed sizes and label mixes.
Plain (uniform) FedAvg treats every uploaded model equally; the paper's
extension (Eq. 12–13) scores each upload by its test-set MSE and
exponentially up-weights the better models. This example prints both
accuracy curves under heterogeneous and IID partitions.

Run:  python examples/heterogeneous_aggregation.py
"""

import numpy as np

from repro.data import make_federated, synthetic_mnist
from repro.experiments.spec import model_factory_for
from repro.federated import FederatedSimulation, make_aggregator
from repro.training import TrainConfig


def run(strategy: str, aggregator_name: str, rounds: int = 5) -> list:
    train_set, test_set = synthetic_mnist(train_size=800, test_size=300, seed=2)
    factory = model_factory_for(train_set, "lenet5")
    config = TrainConfig(epochs=2, batch_size=50, learning_rate=0.02, momentum=0.9)
    fed = make_federated(train_set, test_set, 5, np.random.default_rng(11),
                         strategy=strategy)
    aggregator = make_aggregator(aggregator_name, test_set=test_set,
                                 model_factory=factory)
    sim = FederatedSimulation(factory, fed, aggregator, config, seed=7)
    return sim.run(rounds).accuracies


def main() -> None:
    print("heterogeneous partition (size + label skew):")
    fedavg = run("heterogeneous", "fedavg_uniform")
    adaptive = run("heterogeneous", "adaptive")
    print(f"  fedavg  : {[f'{a:.2f}' for a in fedavg]}")
    print(f"  adaptive: {[f'{a:.2f}' for a in adaptive]}")
    print("  -> adaptive weighting recovers faster in the early rounds\n")

    print("IID partition (sanity check — both should coincide):")
    fedavg = run("iid", "fedavg_uniform")
    adaptive = run("iid", "adaptive")
    print(f"  fedavg  : {[f'{a:.2f}' for a in fedavg]}")
    print(f"  adaptive: {[f'{a:.2f}' for a in adaptive]}")
    gap = max(abs(a - b) for a, b in zip(fedavg, adaptive))
    print(f"  max gap: {gap:.3f} (paper Fig 9: 'virtually identical')")


if __name__ == "__main__":
    main()
