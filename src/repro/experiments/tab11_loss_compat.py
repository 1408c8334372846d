"""Table XI: compatibility of the framework with different hard losses.

Swaps the hard-loss component of the total loss between cross-entropy
("Total loss α"), focal loss ("Total loss β") and NLL ("Total loss γ"),
keeping confusion + distillation on. The paper's finding: accuracy stays
high and backdoor success stays low regardless of the hard-loss choice —
the framework is loss-agnostic. We extend the study with a fourth variant
the paper did not test, label-smoothed cross-entropy ("Total loss δ"),
exercising the same compatibility claim on a loss with non-one-hot
targets.

This module is a *spec definition*: the hard-loss swaps are declared as
goldfish-config overrides and executed by
:func:`repro.experiments.runner.run_goldfish_variants`.
"""

from __future__ import annotations

from typing import Sequence

from . import runner
from .common import backdoor_spec
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import ExperimentSpec

HARD_LOSSES = {
    "total_alpha": "cross_entropy",
    "total_beta": "focal",
    "total_gamma": "nll",
    "total_delta": "label_smoothing",
}


def spec_for(
    dataset: str = "cifar10_resnet", deletion_rate: float = 0.06
) -> ExperimentSpec:
    """The declarative hard-loss compatibility study."""
    return ExperimentSpec(
        experiment_id="Table XI",
        title="Hard-loss compatibility (α=CE, β=focal, γ=NLL, δ=label-smoothed CE)",
        scenario=backdoor_spec(dataset, deletion_rate),
        methods=("ours",),
    )


def run(
    scale: ExperimentScale,
    deletion_rate: float = 0.06,
    checkpoints: Sequence[int] = (),
    seed: int = 0,
    dataset: str = "cifar10_resnet",
) -> ExperimentResult:
    """Reproduce Table XI at this scale."""
    return runner.run_goldfish_variants(
        spec_for(dataset, deletion_rate), scale, checkpoints=checkpoints, seed=seed,
        variants={
            name: {"hard_loss": hard_loss} for name, hard_loss in HARD_LOSSES.items()
        },
    )
