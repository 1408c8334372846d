"""Fig. 7a–c: accuracy around a deletion event for different shard counts.

Training proceeds for a few rounds, a deletion lands at the marked round
(the paper's red dashed line at round 3), only the affected shards are
retrained from their checkpoints, and training continues. The paper's
observations to reproduce:

* at a 2% deletion rate the deleted data touches few shards, so sharded
  models recover much faster than the unsharded (τ=1) model;
* as the rate grows (6%, 10%) more shards are hit and the advantage of
  small τ shrinks, while moderate τ (6–9) still recovers quickly.

This module is a *spec definition*: the loop lives in
:func:`repro.experiments.runner.run_shard_deletion`.
"""

from __future__ import annotations

from typing import Sequence

from . import runner
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import AttackSpec, DatasetSpec, ExperimentSpec, ScenarioSpec


def spec_for(dataset: str = "mnist") -> ExperimentSpec:
    """The declarative deletion-recovery timeline study."""
    return ExperimentSpec(
        experiment_id="Fig 7 ({rate:.0f}% deletion)",
        title="Accuracy around deletion at round {deletion_round}",
        scenario=ScenarioSpec(
            dataset=DatasetSpec(name=dataset), attack=AttackSpec(kind="none")
        ),
    )


def run_one_rate(
    scale: ExperimentScale,
    deletion_rate: float,
    shard_counts: Sequence[int] = (),
    deletion_round: int = 3,
    num_rounds: int = 0,
    dataset: str = "mnist",
    seed: int = 0,
) -> ExperimentResult:
    """One panel: accuracy timeline per shard count at one deletion rate."""
    return runner.run_shard_deletion(
        spec_for(dataset), scale, deletion_rate,
        shard_counts=shard_counts, deletion_round=deletion_round,
        num_rounds=num_rounds, seed=seed,
    )


def run_all(scale: ExperimentScale, rates: Sequence[float] = (0.02, 0.06, 0.10),
            seed: int = 0, dataset: str = "mnist"):
    """All three Fig. 7 panels."""
    return {
        f"{100 * rate:.0f}%": run_one_rate(scale, rate, dataset=dataset, seed=seed)
        for rate in rates
    }
