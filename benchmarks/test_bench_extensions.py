"""Extension bench: update compression.

Not a paper artifact — an ablation for the substrate feature the paper's
discussion motivates (upload cost). The bench drives the public API end
to end and checks the structural invariants that hold at any scale.
"""

import numpy as np
import pytest

from repro.data import make_dataset, make_federated
from repro.federated import FedAvgAggregator, FederatedSimulation
from repro.nn.models import build_model
from repro.training import TrainConfig

from .conftest import run_once


def _federation(scale, seed=0):
    train_set, test_set = make_dataset(
        "mnist", train_size=scale.train_size, test_size=scale.test_size, seed=seed
    )
    fed = make_federated(train_set, test_set, scale.num_clients,
                         np.random.default_rng(seed + 1))
    factory = lambda: build_model(
        "lenet5", num_classes=train_set.num_classes,
        rng=np.random.default_rng(42),
        in_channels=train_set.in_channels, image_size=train_set.image_size,
    )
    config = TrainConfig(epochs=scale.local_epochs, batch_size=scale.batch_size,
                         learning_rate=scale.learning_rate)
    return fed, factory, config, test_set


def test_compression_accuracy_vs_bytes(benchmark, scale):
    """Top-k upload compression: wire bytes must grow with the kept
    fraction; accuracy degrades gracefully (the rows are printed)."""
    fractions = (0.05, 0.25, 1.0)
    rounds = max(2, scale.pretrain_rounds // 2)

    def run():
        results = {}
        for fraction in fractions:
            fed, factory, config, _ = _federation(scale, seed=1)
            sim = FederatedSimulation(
                factory, fed, FedAvgAggregator(), config, seed=3,
                codec="raw" if fraction == 1.0 else f"topk:{fraction}",
            )
            history = sim.run(rounds)
            results[fraction] = (
                history.final_accuracy, sim.transport_report()["bytes_up"]
            )
        return results

    results = run_once(benchmark, run)
    print()
    for fraction, (accuracy, total_bytes) in results.items():
        print(f"topk fraction {fraction}: acc {100 * accuracy:.1f}%  "
              f"uploads {total_bytes / 1024:.0f} KiB")
    bytes_by_fraction = [results[f][1] for f in fractions]
    assert bytes_by_fraction[0] < bytes_by_fraction[1] < bytes_by_fraction[2]
    # Dense uploads should not lose to the harshest compression.
    assert results[1.0][0] >= results[0.05][0] - 0.05

