"""Fig. 9: FedAvg vs adaptive aggregation under IID local data.

With uniformly distributed local datasets the two aggregators should be
nearly indistinguishable ("virtually identical variations") — adaptive
weighting degenerates toward uniform weights when every client's model
quality is similar. This is the sanity check that the extension does not
*hurt* the homogeneous case.

This module is a *spec definition*: the loop lives in
:func:`repro.experiments.runner.run_aggregation_iid`.
"""

from __future__ import annotations

from typing import Sequence

from . import runner
from .fig8_heterogeneous import AGGREGATORS
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import AttackSpec, DatasetSpec, ExperimentSpec, PartitionSpec, ScenarioSpec


def spec_for(dataset: str = "mnist") -> ExperimentSpec:
    """The declarative IID aggregation sanity check."""
    return ExperimentSpec(
        experiment_id="Fig 9",
        title="FedAvg vs adaptive aggregation, IID local data",
        scenario=ScenarioSpec(
            dataset=DatasetSpec(name=dataset),
            partition=PartitionSpec(strategy="iid"),
            attack=AttackSpec(kind="none"),
        ),
    )


def run(
    scale: ExperimentScale,
    client_counts: Sequence[int] = (),
    num_rounds: int = 0,
    dataset: str = "mnist",
    seed: int = 0,
) -> ExperimentResult:
    """Accuracy curves for both aggregators at each client count."""
    return runner.run_aggregation_iid(
        spec_for(dataset), scale,
        client_counts=client_counts, num_rounds=num_rounds, seed=seed,
        aggregators=AGGREGATORS,
    )
