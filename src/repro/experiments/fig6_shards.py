"""Fig. 6: accuracy vs training round for different shard counts τ.

One client's local data is split into τ shards; each shard trains its own
model and the client's local model is the size-weighted aggregate (Eq. 8).
The paper's observation: accuracy improves more slowly as τ grows (each
shard model only sees 1/τ of the data, so the averaged model is biased
toward local views), but every shard count converges to a similar level.

This module is a *spec definition*: the loop lives in
:func:`repro.experiments.runner.run_shard_convergence`.
"""

from __future__ import annotations

from typing import Sequence

from . import runner
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import AttackSpec, DatasetSpec, ExperimentSpec, ScenarioSpec


def spec_for(dataset: str = "mnist") -> ExperimentSpec:
    """The declarative shard-convergence study."""
    return ExperimentSpec(
        experiment_id="Fig 6",
        title="Accuracy vs rounds for shard counts {shard_counts} ({dataset})",
        scenario=ScenarioSpec(
            dataset=DatasetSpec(name=dataset), attack=AttackSpec(kind="none")
        ),
    )


def run(
    scale: ExperimentScale,
    shard_counts: Sequence[int] = (),
    num_rounds: int = 0,
    dataset: str = "mnist",
    seed: int = 0,
) -> ExperimentResult:
    """Per-round test accuracy of the shard-aggregated model for each τ."""
    return runner.run_shard_convergence(
        spec_for(dataset), scale,
        shard_counts=shard_counts, num_rounds=num_rounds, seed=seed,
    )
