"""Ablation bench: the paper's sharding (Eq. 8–10) vs full SISA slicing.

The paper adopts SISA's *sharding* but not its *slicing*. Slicing's value
is the per-slice checkpoint: a deletion in slice r of R resumes from the
checkpoint after slice r−1 and redoes only the suffix, instead of redoing
the shard's whole incremental schedule. This bench measures, on the same
dataset / model / shard count:

* the paper's :class:`ShardedClientTrainer` — deletion retrains the
  whole affected shard;
* :class:`SisaEnsemble` — deletion cost depends on the slice position:
  last-slice deletions redo ~1/R of the schedule, first-slice deletions
  redo all of it (the no-checkpoint worst case).

Structural invariants: last-slice resume work < first-slice (cold) work;
both systems keep accuracy well above chance after deletion.
"""

import numpy as np

from repro.data import make_dataset
from repro.experiments.spec import model_factory_for
from repro.training import TrainConfig
from repro.training.evaluation import evaluate
from repro.unlearning import ShardedClientTrainer, SisaConfig, SisaEnsemble

from .conftest import run_once

NUM_SHARDS = 3
NUM_SLICES = 4


def _sisa_deletion_work(ensemble, shard_index, slice_position, epochs):
    """Sample-epochs SISA redoes for a deletion at this slice position."""
    ensemble.fit()
    shard = ensemble._shards[shard_index]
    target = int(shard.slice_indices[slice_position][0])
    report = ensemble.delete([target])
    resumed_from = NUM_SLICES - report.slices_retrained
    work = sum(
        len(ensemble._active_indices(shard, s)) * epochs
        for s in range(resumed_from, NUM_SLICES)
    )
    return work, ensemble.evaluate


def test_slice_checkpoints_cut_deletion_cost(benchmark, scale):
    train_set, test_set = make_dataset(
        "mnist", train_size=scale.train_size, test_size=scale.test_size, seed=0
    )
    factory = model_factory_for(train_set, "lenet5")
    config = TrainConfig(epochs=scale.local_epochs, batch_size=scale.batch_size,
                         learning_rate=scale.learning_rate)

    def sisa_config():
        return SisaConfig(num_shards=NUM_SHARDS, num_slices=NUM_SLICES,
                          epochs_per_slice=config.epochs,
                          batch_size=config.batch_size,
                          learning_rate=config.learning_rate)

    def run():
        # --- paper's sharding: whole-shard retrain on deletion -----------
        trainer = ShardedClientTrainer(
            train_set, NUM_SHARDS, factory, np.random.default_rng(0)
        )
        trainer.train_all(config)
        target = int(trainer.shard_indices[0][0])
        report = trainer.delete(np.array([target]), config)
        _, shard_accuracy = evaluate(trainer.local_model(), test_set)
        shard_work = int(sum(
            trainer.shard_sizes()[s] for s in report.retrained_shards
        ) * config.epochs)

        # --- SISA: best case (last slice) vs worst case (first slice) ----
        best = SisaEnsemble(factory, train_set, sisa_config(), seed=0)
        best_work, best_eval = _sisa_deletion_work(
            best, 0, NUM_SLICES - 1, config.epochs
        )
        best_accuracy = best_eval(test_set)

        worst = SisaEnsemble(factory, train_set, sisa_config(), seed=0)
        worst_work, worst_eval = _sisa_deletion_work(worst, 0, 0, config.epochs)
        worst_accuracy = worst_eval(test_set)

        return {
            "paper_shard": (shard_work, shard_accuracy),
            "sisa_best": (best_work, best_accuracy),
            "sisa_worst": (worst_work, worst_accuracy),
        }

    results = run_once(benchmark, run)
    print()
    for name, (work, accuracy) in results.items():
        print(f"{name:12s} retrained {work:6d} sample-epochs, "
              f"acc {100 * accuracy:.1f}%")

    # Checkpoint resume (last slice) beats replaying the whole incremental
    # schedule (first slice) — the entire point of slicing.
    assert results["sisa_best"][0] < results["sisa_worst"][0]
    # A last-slice SISA deletion costs no more than the paper's
    # whole-shard retrain (both train one pass over ~the shard, but SISA
    # reuses its checkpoint, never more).
    assert results["sisa_best"][0] <= results["paper_shard"][0] * 1.05
    chance = 1.0 / train_set.num_classes
    for work, accuracy in results.values():
        assert accuracy > 2 * chance
