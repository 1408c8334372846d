"""Fig. 5 + Tables III–VI: accuracy & backdoor success rate vs deletion rate.

For every deletion rate the harness pretrains a federation whose client 0
holds backdoored data, then runs each unlearning method from the same
pretrained snapshot and reports test accuracy and backdoor attack success
rate — the exact columns of Tables III (MNIST), IV (FMNIST), V (CIFAR-10)
and VI (CIFAR-100); the backdoor columns plotted against deletion rate are
Fig. 5a–e.

Methods: ``origin`` (no unlearning), ``ours`` (Goldfish), ``b1`` (retrain
from scratch), ``b3`` (incompetent teacher). B2 is excluded exactly as in
the paper ("B2 ... is the same as B1. Both retrain from scratch.
Therefore, it is not included here").

This module is a *spec definition*: the loop lives in
:func:`repro.experiments.runner.run_rate_table`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from . import runner
from .common import backdoor_spec
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import ExperimentSpec

TABLE_IDS = {
    "mnist": "Table III / Fig 5a",
    "fmnist": "Table IV / Fig 5b",
    "cifar10": "Table V / Fig 5c",
    "cifar10_resnet": "Fig 5d",
    "cifar100": "Table VI / Fig 5e",
}

DATASETS = tuple(TABLE_IDS)
METHODS = ("ours", "b1", "b3")


def spec_for(dataset: str) -> ExperimentSpec:
    """The declarative experiment for one dataset's table/panel."""
    if dataset not in TABLE_IDS:
        raise ValueError(f"unknown dataset {dataset!r}; available: {sorted(TABLE_IDS)}")
    return ExperimentSpec(
        experiment_id=TABLE_IDS[dataset],
        title=f"Accuracy / backdoor success rate vs deletion rate ({dataset})",
        scenario=backdoor_spec(dataset, deletion_rate=0.06),
        methods=METHODS,
    )


def run(dataset: str, scale: ExperimentScale,
        rates: Sequence[float] = (), seed: int = 0) -> ExperimentResult:
    """Reproduce one dataset's table (and its Fig. 5 panel)."""
    return runner.run_rate_table(spec_for(dataset), scale, rates=rates, seed=seed)


def run_all(scale: ExperimentScale, seed: int = 0) -> Dict[str, ExperimentResult]:
    """Tables III–VI and all five Fig. 5 panels."""
    return {name: run(name, scale, seed=seed) for name in TABLE_IDS}
