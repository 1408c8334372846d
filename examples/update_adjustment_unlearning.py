#!/usr/bin/env python
"""Client-level unlearning without retraining: FedEraser and FedRecovery.

The paper's Related Work describes a second unlearning family — *model
update adjustment* — that trades server-side storage for unlearning speed.
This example exercises both implementations end to end:

1. train a 5-client federation with the server retaining round history;
2. erase client 0 with **FedEraser** (calibrated replay of the retained
   updates by the remaining clients — a few cheap epochs each);
3. erase client 0 with **FedRecovery** (pure server-side subtraction of
   the client's residual-weighted contributions, released noiseless);
4. compare both against the gold standard: full retraining without
   client 0.

Run:  python examples/update_adjustment_unlearning.py
"""

import time

import numpy as np

from repro.data import make_federated, synthetic_mnist
from repro.data.dataset import FederatedDataset
from repro.experiments.spec import model_factory_for
from repro.federated import (
    FedAvgAggregator,
    FederatedSimulation,
    RoundHistoryStore,
    attach_history,
    state_math,
)
from repro.training import TrainConfig, evaluate
from repro.unlearning import (
    FedEraser,
    FedEraserConfig,
    FedRecovery,
)


def accuracy_of(factory, state, test_set) -> float:
    model = factory()
    model.load_state_dict(state)
    _, accuracy = evaluate(model, test_set)
    return accuracy


def main() -> None:
    # --- 1. federated training with history retention -----------------------
    train_set, test_set = synthetic_mnist(train_size=1000, test_size=400, seed=0)
    fed = make_federated(train_set, test_set, num_clients=5,
                         rng=np.random.default_rng(0))
    factory = model_factory_for(train_set, "lenet5")
    config = TrainConfig(epochs=2, batch_size=50, learning_rate=0.02)
    sim = FederatedSimulation(factory, fed, FedAvgAggregator(), config, seed=1)

    store = attach_history(sim, RoundHistoryStore())
    initial_state = sim.server.initial_state
    history = sim.run(6)
    final_state = sim.server.global_state
    print(f"pretrained accuracy: {history.final_accuracy:.3f}")

    storage = store.storage_report()
    print(f"server retained {storage.num_rounds_stored} rounds, "
          f"{storage.num_client_states} client states, "
          f"{storage.total_bytes / 2**20:.1f} MiB "
          "(the update-adjustment family's storage price)")

    client_datasets = [client.dataset for client in sim.clients]
    rng = np.random.default_rng(7)

    # --- 2. FedEraser: calibrated replay ------------------------------------
    eraser = FedEraser(factory, FedEraserConfig(
        calibration_epochs=1, learning_rate=0.02, batch_size=50))
    start = time.perf_counter()
    erased, report = eraser.unlearn(store, initial_state, client_datasets,
                                    forget_client_id=0, rng=rng)
    print(f"\nFedEraser: replayed {report.rounds_replayed} rounds with "
          f"{report.calibration_epochs_run} calibration epochs "
          f"in {time.perf_counter() - start:.1f}s")
    print(f"  accuracy after erasing client 0: "
          f"{accuracy_of(factory, erased, test_set):.3f}")

    # --- 3. FedRecovery: server-side subtraction -----------------------------
    start = time.perf_counter()
    recovered, recovery_report = FedRecovery().unlearn(
        store, final_state, forget_client_id=0)
    print(f"\nFedRecovery (noiseless): subtracted influence of L2 norm "
          f"{recovery_report.influence_l2:.3f} across "
          f"{recovery_report.rounds_used} rounds "
          f"in {time.perf_counter() - start:.2f}s — no client involvement")
    print(f"  accuracy: {accuracy_of(factory, recovered, test_set):.3f}")

    # --- 4. gold standard: retrain without client 0 --------------------------
    fed_without = FederatedDataset(client_datasets=client_datasets[1:],
                                   test_set=test_set)
    retrain_sim = FederatedSimulation(factory, fed_without, FedAvgAggregator(),
                                      config, seed=1)
    start = time.perf_counter()
    retrain_history = retrain_sim.run(6)
    print(f"\nretrain-from-scratch reference: accuracy "
          f"{retrain_history.final_accuracy:.3f} "
          f"in {time.perf_counter() - start:.1f}s")

    for name, state in (("federaser", erased), ("fedrecovery", recovered)):
        distance = state_math.l2_distance(state, retrain_sim.server.global_state)
        print(f"  L2(retrained, {name}) = {distance:.3f}")


if __name__ == "__main__":
    main()
