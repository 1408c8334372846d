"""Fig. 4a–e: retraining accuracy curves (ours vs B1 vs B2).

After a deletion request, each method retrains the federation and we track
global test accuracy per round. The paper's claim: "our approach attains
the highest accuracy, followed by B2 in second place, while B1 exhibits
the lowest accuracy" — Goldfish converges fastest because the student
distils from the (already-converged) teacher, and B2 beats plain SGD
because of FIM preconditioning.

Panels: (a) MNIST/LeNet-5, (b) FMNIST/LeNet-5, (c) CIFAR-10/modified
LeNet-5, (d) CIFAR-10/ResNet32, (e) CIFAR-100/ResNet56.

This module is a *spec definition*: the loop lives in
:func:`repro.experiments.runner.run_retrain_curves`.
"""

from __future__ import annotations

from typing import Dict

from . import runner
from .common import backdoor_spec
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import ExperimentSpec

PANELS = {
    "mnist": "Fig 4a",
    "fmnist": "Fig 4b",
    "cifar10": "Fig 4c",
    "cifar10_resnet": "Fig 4d",
    "cifar100": "Fig 4e",
}

DATASETS = tuple(PANELS)
METHODS = ("ours", "b1", "b2")


def spec_for(dataset: str, deletion_rate: float = 0.06) -> ExperimentSpec:
    """The declarative experiment for one Fig. 4 panel."""
    if dataset not in PANELS:
        raise ValueError(f"unknown dataset {dataset!r}; available: {sorted(PANELS)}")
    return ExperimentSpec(
        experiment_id=PANELS[dataset],
        title=f"Retraining accuracy per round ({dataset})",
        scenario=backdoor_spec(dataset, deletion_rate),
        methods=METHODS,
    )


def run(
    dataset: str,
    scale: ExperimentScale,
    deletion_rate: float = 0.06,
    num_rounds: int = 0,
    seed: int = 0,
) -> ExperimentResult:
    """One Fig. 4 panel: per-round retraining accuracy for ours/B1/B2."""
    return runner.run_retrain_curves(
        spec_for(dataset, deletion_rate), scale, num_rounds=num_rounds, seed=seed
    )


def run_all(scale: ExperimentScale, seed: int = 0) -> Dict[str, ExperimentResult]:
    """All five Fig. 4 panels."""
    return {name: run(name, scale, seed=seed) for name in PANELS}
