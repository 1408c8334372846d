#!/usr/bin/env python
"""Backdoor-attack validity evaluation: ours vs B1 vs B3 (paper Fig. 5).

The paper validates *forgetting* with a backdoor attack: client 0's
to-be-deleted data carries a pixel trigger mapped to an attacker-chosen
label. A model that genuinely forgot the data stops responding to the
trigger; a model that secretly retained it keeps a high attack success
rate.

This example poisons a federation, trains the (contaminated) origin model,
then unlearns with Goldfish, retraining-from-scratch (B1) and the
incompetent teacher (B3), printing accuracy and attack success per method.

Run:  python examples/backdoor_unlearning.py      (~2-3 minutes on CPU)
"""

from repro.experiments import SMALL
from repro.experiments.common import (
    SimulationSnapshot,
    build_backdoor_federation,
    evaluate_model,
    pretrain,
    run_unlearning_method,
)


def main() -> None:
    scale = SMALL.with_overrides(train_size=800, test_size=300,
                                 pretrain_rounds=8, unlearn_rounds=3)
    deletion_rate = 0.08

    print(f"building backdoored federation (deletion rate {deletion_rate:.0%}) ...")
    setup = build_backdoor_federation("mnist", scale, deletion_rate, seed=0)
    print(f"attack target class: {setup.attack.target_label}, "
          f"poisoned samples: {len(setup.poison_indices)}")

    print("pretraining origin model ...")
    origin = pretrain(setup, scale)
    origin_metrics = evaluate_model(origin, setup)
    print(f"  origin: acc {origin_metrics['acc']:.1f}%  "
          f"backdoor success {origin_metrics['backdoor']:.1f}%")

    snapshot = SimulationSnapshot.capture(setup.sim)
    for method, label in (("ours", "Goldfish (ours)"),
                          ("b1", "B1 retrain-from-scratch"),
                          ("b3", "B3 incompetent teacher")):
        snapshot.restore(setup.sim)
        setup.register_deletion()
        outcome = run_unlearning_method(method, setup, scale)
        metrics = evaluate_model(outcome.global_model, setup)
        print(f"  {label:28s}: acc {metrics['acc']:5.1f}%  "
              f"backdoor {metrics['backdoor']:5.1f}%  "
              f"({outcome.wall_seconds:.1f}s)")

    print("\nExpected shape (paper Tables III / Fig 5a): the origin model is")
    print("heavily backdoored; all three unlearning methods collapse the")
    print("attack success rate while keeping test accuracy high.")


if __name__ == "__main__":
    main()
