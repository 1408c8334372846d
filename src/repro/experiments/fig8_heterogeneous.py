"""Fig. 8a–c + Table XII: aggregation under heterogeneous local data.

Clients receive local datasets of wildly different sizes and label mixes
(the combined heterogeneous partition — see
:func:`repro.data.partition.partition_heterogeneous`). Per round we record
the global model's accuracy and
the spread (error bars) of individual client models, for FedAvg vs the
paper's adaptive-weight aggregation (Eq. 12–13). Table XII reports the
heterogeneity statistics: variance of local dataset sizes and the min/max
accuracy of independently trained local models.

Paper shape to reproduce: FedAvg shows wide error bars and a slow start in
the early rounds; adaptive weighting up-weights the strong clients and
reaches high accuracy sooner.

This module is a *spec definition*: the loops live in
:func:`repro.experiments.runner.run_aggregation_panel` and
:func:`repro.experiments.runner.run_heterogeneity_table`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from . import runner
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import AttackSpec, DatasetSpec, ExperimentSpec, PartitionSpec, ScenarioSpec

# The FedAvg baseline is the uniform-mean variant: the paper's Eq. 13
# carries no size term, and a privacy-conscious server does not learn
# client dataset sizes (see FedAvgAggregator docstring).
AGGREGATORS = {"fedavg": "fedavg_uniform", "adaptive": "adaptive"}


def _scenario(dataset: str) -> ScenarioSpec:
    return ScenarioSpec(
        dataset=DatasetSpec(name=dataset),
        partition=PartitionSpec(strategy="heterogeneous"),
        attack=AttackSpec(kind="none"),
    )


def spec_for(dataset: str = "mnist") -> ExperimentSpec:
    """The declarative heterogeneous-aggregation comparison."""
    return ExperimentSpec(
        experiment_id="Fig 8 ({clients} clients)",
        title="FedAvg vs adaptive aggregation, heterogeneous local data",
        scenario=_scenario(dataset),
    )


def run_one(
    scale: ExperimentScale,
    num_clients: int,
    num_rounds: int = 0,
    dataset: str = "mnist",
    seed: int = 0,
) -> ExperimentResult:
    """One Fig. 8 panel: FedAvg vs ours for one client count."""
    return runner.run_aggregation_panel(
        spec_for(dataset), scale, num_clients, num_rounds=num_rounds, seed=seed,
        aggregators=AGGREGATORS,
    )


def run_table12(scale: ExperimentScale, client_counts: Sequence[int] = (),
                seed: int = 0, dataset: str = "mnist") -> ExperimentResult:
    """Table XII: heterogeneity representation."""
    exp = ExperimentSpec(
        experiment_id="Table XII",
        title="Representation of data heterogeneity",
        scenario=_scenario(dataset),
    )
    return runner.run_heterogeneity_table(
        exp, scale, client_counts=client_counts, seed=seed
    )


def run_all(scale: ExperimentScale, seed: int = 0,
            dataset: str = "mnist") -> Dict[str, ExperimentResult]:
    """All Fig. 8 panels plus Table XII."""
    results = {
        f"{count}_clients": run_one(scale, count, dataset=dataset, seed=seed)
        for count in scale.client_counts
    }
    results["table12"] = run_table12(scale, seed=seed, dataset=dataset)
    return results
