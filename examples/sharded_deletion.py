#!/usr/bin/env python
"""Data sharding: cheap deletions via per-shard models (paper Fig. 2/3, Eq. 8–10).

A client splits its local data into τ shards, trains one model per shard,
and publishes the size-weighted aggregate (Eq. 8). When a deletion request
arrives, only the shards containing removed samples retrain — the others
are reused as a checkpoint (Eq. 9) — and the affected shard's new weights
are recoverable by subtraction (Eq. 10).

This example times a deletion with and without sharding and verifies the
Eq. 10 recovery identity numerically.

Run:  python examples/sharded_deletion.py
"""

import time

import numpy as np

from repro.data import synthetic_mnist
from repro.experiments.spec import model_factory_for
from repro.training import TrainConfig, evaluate
from repro.unlearning import ShardedClientTrainer


def main() -> None:
    train_set, test_set = synthetic_mnist(train_size=900, test_size=300, seed=0)
    factory = model_factory_for(train_set, "lenet5")
    config = TrainConfig(epochs=1, batch_size=50, learning_rate=0.02, momentum=0.9)
    # A small deletion (one user's handful of records) — the regime where
    # sharding shines: only the shards containing these samples retrain.
    delete_indices = np.random.default_rng(1).choice(900, 5, replace=False)

    for tau in (1, 6):
        trainer = ShardedClientTrainer(train_set, tau, factory,
                                       np.random.default_rng(0))
        for _ in range(3):
            trainer.train_all(config)
        _, acc_before = evaluate(trainer.local_model(), test_set)

        start = time.perf_counter()
        report = trainer.delete(delete_indices, config)
        elapsed = time.perf_counter() - start
        _, acc_after = evaluate(trainer.local_model(), test_set)

        print(f"τ={tau}: deletion retrained {len(report.retrained_shards)}/{tau} "
              f"shards in {elapsed:.2f}s "
              f"(acc {acc_before:.3f} -> {acc_after:.3f})")

    # --- Eq. 10 identity: recover a shard's weights from the aggregate ------
    trainer = ShardedClientTrainer(train_set, 3, factory, np.random.default_rng(2))
    trainer.train_all(config)
    combined = trainer.local_state()
    recovered = trainer.recover_shard_state(1, combined)
    max_error = max(
        float(np.abs(recovered[k] - trainer.shard_states[1][k]).max())
        for k in recovered
    )
    print(f"Eq. 10 shard-recovery max error: {max_error:.2e} (exact up to float)")


if __name__ == "__main__":
    main()
