"""Unlearning-efficiency comparison across all six unlearning methods.

The paper's central claim is that Goldfish unlearns *efficiently* — Fig. 4
shows accuracy-per-epoch, but the underlying systems quantities (compute,
communication, server storage) are what a deployment would budget. This
experiment makes them explicit. For one backdoored federation it runs
every unlearning method (:data:`repro.unlearning.protocols.METHODS`):

* the paper's four sample-level flows — **ours** (Goldfish), **B1**
  (retrain), **B2** (rapid retraining), **B3** (incompetent teacher) —
  which delete the poisoned subset of client 0; and
* the two update-adjustment client-level methods from the related work —
  **FedEraser** and **FedRecovery** — which erase client 0 entirely
  (also removing the backdoor, since all poison lives there).

and reports, per method: test accuracy, backdoor attack success rate,
wall-clock seconds, local training epochs, communication volume, and the
server-side history storage the method requires (zero for the paper's
flows; the whole round history for the update-adjustment family — the
efficiency/storage trade-off the Related Work section describes).

This module is a *spec definition*: the loop lives in
:func:`repro.experiments.runner.run_efficiency` — ``run_method`` runs the
sample-level and client-level families by name, in one iteration.
"""

from __future__ import annotations

from typing import Optional

from ..unlearning.protocols import METHODS
from . import runner
from .common import backdoor_spec
from .results import ExperimentResult
from .scale import ExperimentScale, get_scale
from .spec import ExperimentSpec


NOTES = (
    "comm_mb = model states moved during unlearning (both "
    "directions); storage_mb = retained round history the method "
    "requires server-side. FedEraser/FedRecovery erase client 0 "
    "entirely (client-level unlearning); FedRecovery runs its "
    "noiseless variant here so accuracy is comparable."
)


def spec_for(dataset: str = "mnist", deletion_rate: float = 0.06) -> ExperimentSpec:
    """The declarative efficiency comparison."""
    return ExperimentSpec(
        experiment_id="efficiency",
        title=(
            "Unlearning efficiency on {dataset} "
            "(deletion rate {rate:.0%}, {clients} clients)"
        ),
        scenario=backdoor_spec(dataset, deletion_rate),
        methods=METHODS,
    )


def run(
    dataset_name: str = "mnist",
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    deletion_rate: float = 0.06,
) -> ExperimentResult:
    """Run every unlearning method on one backdoored federation."""
    if scale is None:
        scale = get_scale("smoke")
    return runner.run_efficiency(
        spec_for(dataset_name, deletion_rate), scale, seed=seed, notes=NOTES
    )
