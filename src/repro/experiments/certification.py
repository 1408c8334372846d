"""Certification experiment: how *provably forgotten* is the forget set?

Goes beyond the paper's backdoor/JSD instruments with the certification
toolkit (``repro.eval.certification`` / ``repro.eval.membership``):

* **ε̂** — empirical (ε, δ)-indistinguishability of each unlearned model
  against the retrained reference B1, on the test probe (Ginart et al.'s
  criterion, measured rather than proven);
* **MIA advantage** — confidence-threshold membership attack on the
  forget set, before (origin) and after each method;
* **relearn speed-up** — epochs for the unlearned model to re-acquire the
  forget set vs a fresh model (≈ 1.0 means no residual knowledge).

The origin row anchors the scale: it should be maximally distinguishable
from B1's retrain and maximally attackable.

This module is a *spec definition*: the loop lives in
:func:`repro.experiments.runner.run_certification`.
"""

from __future__ import annotations

from typing import Optional

from . import runner
from .common import backdoor_spec
from .results import ExperimentResult
from .scale import ExperimentScale, get_scale
from .spec import ExperimentSpec


_CERT_DELTA = 0.05
_RELEARN_MAX_EPOCHS = 12
_RELEARN_LOSS_THRESHOLD = 0.3

NOTES = (
    f"eps_hat at delta={_CERT_DELTA} on a probe of clean + "
    "trigger-stamped test samples (retained backdoor knowledge "
    "only surfaces on triggered inputs); mia_adv is the "
    "confidence-threshold attack's TPR-FPR on the forget set; "
    "relearn_speedup ~ 1.0 means forgetting (fresh-model-like), "
    ">> 1 means residual knowledge."
)


def spec_for(dataset: str = "mnist", deletion_rate: float = 0.06) -> ExperimentSpec:
    """The declarative certification study (b1 runs first: the reference)."""
    return ExperimentSpec(
        experiment_id="certification",
        title=(
            "Unlearning certification vs retrained reference on "
            "{dataset} (deletion rate {rate:.0%})"
        ),
        scenario=backdoor_spec(dataset, deletion_rate),
        methods=("b1", "ours", "b3"),
    )


def run(
    dataset_name: str = "mnist",
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    deletion_rate: float = 0.06,
) -> ExperimentResult:
    """Certify ours / B3 / origin against the B1 retrained reference."""
    if scale is None:
        scale = get_scale("smoke")
    return runner.run_certification(
        spec_for(dataset_name, deletion_rate), scale, seed=seed,
        reference="b1",
        delta=_CERT_DELTA,
        relearn_max_epochs=_RELEARN_MAX_EPOCHS,
        relearn_loss_threshold=_RELEARN_LOSS_THRESHOLD,
        notes=NOTES,
    )
