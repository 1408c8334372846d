#!/usr/bin/env python
"""SISA sharding + slicing: deletion cost as a function of slice position.

The paper's data-partition optimisation (Fig. 2–3) adopts the sharding
half of SISA (Bourtoule et al. [9]); this example runs the complete
original method — including incremental *slicing* with per-slice
checkpoints — and measures what each deletion actually costs:

1. train a 3-shard × 4-slice ensemble on synthetic MNIST;
2. delete a sample from the LAST slice of its shard (cheapest case: one
   slice step retrained, everything else reused from checkpoints);
3. delete a sample from the FIRST slice (worst case: the whole shard);
4. show ensemble accuracy is preserved throughout.

Run:  python examples/sisa_ensemble.py
"""

import time

import numpy as np

from repro.data import synthetic_mnist
from repro.experiments.spec import model_factory_for
from repro.unlearning import SisaConfig, SisaEnsemble


def main() -> None:
    train_set, test_set = synthetic_mnist(train_size=900, test_size=300, seed=0)
    factory = model_factory_for(train_set, "lenet5")

    config = SisaConfig(
        num_shards=3,
        num_slices=4,
        epochs_per_slice=1,
        batch_size=50,
        learning_rate=0.02,
        aggregation="soft",
    )
    ensemble = SisaEnsemble(factory, train_set, config, seed=0)

    start = time.perf_counter()
    ensemble.fit()
    fit_seconds = time.perf_counter() - start
    print(f"initial training ({config.num_shards} shards x "
          f"{config.num_slices} slices): {fit_seconds:.1f}s, "
          f"accuracy {ensemble.evaluate(test_set):.3f}")

    # --- cheapest deletion: last slice ---------------------------------------
    cheap_target = int(ensemble._shards[0].slice_indices[-1][0])
    start = time.perf_counter()
    report = ensemble.delete([cheap_target])
    print(f"\ndelete from LAST slice: retrained "
          f"{report.slices_retrained}/{report.slice_steps_total} slice steps "
          f"({report.fraction_retrained:.0%}) in "
          f"{time.perf_counter() - start:.1f}s")

    # --- worst-case deletion: first slice ------------------------------------
    costly_target = int(ensemble._shards[1].slice_indices[0][0])
    start = time.perf_counter()
    report = ensemble.delete([costly_target])
    print(f"delete from FIRST slice: retrained "
          f"{report.slices_retrained}/{report.slice_steps_total} slice steps "
          f"({report.fraction_retrained:.0%}) in "
          f"{time.perf_counter() - start:.1f}s")

    # --- batch deletion across shards ----------------------------------------
    rng = np.random.default_rng(3)
    alive = np.setdiff1d(np.arange(len(train_set)),
                         [cheap_target, costly_target])
    batch = rng.choice(alive, size=9, replace=False)
    report = ensemble.delete(batch.tolist())
    print(f"batch of 9 deletions hit shards {report.shards_affected}, "
          f"retrained {report.slices_retrained} slice steps")

    print(f"\nfinal accuracy after {ensemble.num_deleted} deletions: "
          f"{ensemble.evaluate(test_set):.3f}")
    print(f"live shard sizes: {ensemble.shard_sizes()}")


if __name__ == "__main__":
    main()
