#!/usr/bin/env python
"""A hardened federation: secure aggregation, compression, dropout, metering.

The paper's threat model (Section I) motivates never exposing individual
client updates to the server. This example assembles the full systems
stack around the plain FL loop:

0. the attack itself: a curious server reconstructs a client's training
   image pixel-exactly from one plain SGD update (Zhu et al. [19]) — and
   fails against a masked upload;
1. clients mask their uploads pairwise (Bonawitz-style secure aggregation)
   so the server only ever sees the aggregate — and one client drops out
   mid-round to exercise the seed-reveal recovery path;
2. uploads are top-k sparsified with error feedback, and the exact wire
   bytes are metered against the dense baseline;
3. a cost meter totals the traffic and compute of the whole run.

Run:  python examples/secure_federation.py
"""

import numpy as np

from repro.attacks import run_leakage_attack
from repro.data import make_federated, synthetic_mnist
from repro.data.dataset import ArrayDataset
from repro.nn.models import MLP
from repro.experiments.common import model_factory_for
from repro.federated import CostMeter, SecureAggregationRound, state_bytes
from repro.runtime import get_codec
from repro.training import TrainConfig, evaluate
from repro.training.trainer import train


def demonstrate_the_threat() -> None:
    """Why any of this matters: one plain update leaks a training image."""
    rng = np.random.default_rng(9)
    victim_image = rng.normal(size=(1, 1, 4, 4))
    victim_data = ArrayDataset(victim_image, np.array([1]), num_classes=3)
    model = MLP(16, 3, np.random.default_rng(42), hidden=(8,))
    before = model.state_dict()
    train(model, victim_data,
          TrainConfig(epochs=1, batch_size=1, learning_rate=0.05, momentum=0.0),
          rng)
    after = model.state_dict()

    plain = run_leakage_attack(before, after, 0.05, victim_image)
    masked_state = SecureAggregationRound([0, 1], 0).masked_update(
        0, after, num_samples=1).masked_state
    masked = run_leakage_attack(before, masked_state, 0.05, victim_image)
    print("gradient-leakage attack on one SGD update:")
    print(f"  plain upload:  reconstruction similarity "
          f"{plain.similarity:.4f}  -> {'LEAKED' if plain.leaked else 'safe'}")
    print(f"  masked upload: reconstruction similarity "
          f"{masked.similarity:.4f}  -> {'LEAKED' if masked.leaked else 'safe'}\n")


def main() -> None:
    demonstrate_the_threat()
    train_set, test_set = synthetic_mnist(train_size=1000, test_size=400, seed=0)
    fed = make_federated(train_set, test_set, num_clients=5,
                         rng=np.random.default_rng(0))
    factory = model_factory_for(train_set, "lenet5")
    config = TrainConfig(epochs=2, batch_size=50, learning_rate=0.02)
    rng = np.random.default_rng(1)

    global_model = factory()
    global_state = global_model.state_dict()
    dense_bytes = state_bytes(global_state)
    print(f"model wire size (dense float32): {dense_bytes / 1024:.0f} KiB")

    meter = CostMeter("secure-federation")
    # One shared codec; the error-feedback residual is per-client state the
    # caller carries from one encode to the next.
    codec = get_codec("ef:topk:0.25")
    residuals = {cid: None for cid in range(fed.num_clients)}
    num_rounds = 6

    for round_index in range(num_rounds):
        with meter.time_block():
            meter.record_broadcast(global_state, fed.num_clients)

            # --- local training + compressed, masked uploads ----------------
            secure_round = SecureAggregationRound(
                list(range(fed.num_clients)), round_index)
            dropped = 3 if round_index == 2 else None  # client 3 fails once
            for client_id, dataset in enumerate(fed.client_datasets):
                if client_id == dropped:
                    continue
                local = factory()
                local.load_state_dict(global_state)
                train(local, dataset, config, rng)
                meter.record_training(len(dataset), config.epochs)

                encoded, residuals[client_id] = codec.encode_with_residual(
                    local.state_dict(), global_state, residuals[client_id]
                )
                meter.record_upload(encoded.nbytes)

                # The server aggregates what it can reconstruct; masking
                # happens on the reconstructed (sparse) update so the
                # cancellation arithmetic stays exact.
                masked = secure_round.masked_update(
                    client_id,
                    codec.decode(encoded, global_state),
                    len(dataset),
                )
                secure_round.receive(masked)

            # --- aggregation (with dropout recovery when needed) ------------
            if secure_round.missing_ids:
                print(f"round {round_index}: client(s) "
                      f"{secure_round.missing_ids} dropped — recovering")
                global_state = secure_round.aggregate_with_dropouts()
            else:
                global_state = secure_round.aggregate()
            meter.record_round()

        global_model.load_state_dict(global_state)
        _, accuracy = evaluate(global_model, test_set)
        print(f"round {round_index}: accuracy {accuracy:.3f}")

    report = meter.report()
    dense_total = dense_bytes * fed.num_clients * num_rounds
    print(f"\nuploads: {report.upload_bytes / 2**20:.2f} MiB "
          f"(dense would be {dense_total / 2**20:.2f} MiB — "
          f"x{dense_total / report.upload_bytes:.1f} saved)")
    print(f"downloads: {report.download_bytes / 2**20:.2f} MiB, "
          f"compute: {report.samples_processed} sample-epochs, "
          f"wall: {report.wall_clock_seconds:.1f}s")


if __name__ == "__main__":
    main()
