"""Tables VII–IX: JSD / L2 / t-test validity evaluation.

The paper quantifies forgetting validity by how closely an unlearned
model's output distribution matches B1's (retrained-from-scratch — the
"perfect forgetting" reference):

* JSD and L2 are computed between each method's predictions and B1's on
  the test set (smaller = closer to perfect forgetting);
* the t-test compares each method's prediction confidences against the
  *original* (backdoored) model — small p-values mean the method's
  prediction pattern departs significantly from the contaminated one.

Table VII = MNIST, VIII = FMNIST, IX = CIFAR-10.

This module is a *spec definition*: the loop lives in
:func:`repro.experiments.runner.run_divergence`.
"""

from __future__ import annotations

from typing import Dict, Sequence

from . import runner
from .common import backdoor_spec
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import ExperimentSpec

TABLE_IDS = {
    "mnist": "Table VII",
    "fmnist": "Table VIII",
    "cifar10": "Table IX",
}

DATASETS = tuple(TABLE_IDS)


def spec_for(dataset: str) -> ExperimentSpec:
    """The declarative experiment for one divergence table."""
    if dataset not in TABLE_IDS:
        raise ValueError(f"unknown dataset {dataset!r}; available: {sorted(TABLE_IDS)}")
    return ExperimentSpec(
        experiment_id=TABLE_IDS[dataset],
        title=f"JSD / L2 / t-test vs B1 ({dataset})",
        scenario=backdoor_spec(dataset, deletion_rate=0.06),
        # Execution order (b1 first: it is the reference every other
        # method is measured against).
        methods=("b1", "ours", "b3"),
    )


def run(dataset: str, scale: ExperimentScale,
        rates: Sequence[float] = (), seed: int = 0) -> ExperimentResult:
    """One divergence table: per deletion rate, B3 and ours vs B1/origin.

    The columns put b3 first, exactly as the paper's tables do.
    """
    return runner.run_divergence(
        spec_for(dataset), scale, rates=rates, seed=seed,
        reference="b1", compared=("b3", "ours"),
    )


def run_all(scale: ExperimentScale, seed: int = 0) -> Dict[str, ExperimentResult]:
    """Tables VII, VIII and IX."""
    return {name: run(name, scale, seed=seed) for name in TABLE_IDS}
