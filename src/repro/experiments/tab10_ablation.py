"""Table X: ablation of the composite-loss components.

ResNet on CIFAR-10 with four loss variants — hard loss only, without
distillation (hard + confusion), without confusion (hard + distillation),
and the total loss — evaluated at fixed epoch checkpoints for test accuracy
and backdoor success rate. The paper's findings this harness should echo:

* removing the distillation loss slows training (lower accuracy);
* removing the confusion loss lets backdoor patterns linger (higher ASR);
* the total loss gets both high accuracy and low ASR.

This module is a *spec definition*: the loss variants are declared as
goldfish-config overrides and executed by
:func:`repro.experiments.runner.run_goldfish_variants`.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from . import runner
from .common import backdoor_spec
from .results import ExperimentResult
from .scale import ExperimentScale
from .spec import ExperimentSpec

# name -> (use_confusion, use_distillation)
VARIANTS: Dict[str, Tuple[bool, bool]] = {
    "hard_only": (False, False),
    "wo_distillation": (True, False),
    "wo_confusion": (False, True),
    "total": (True, True),
}


def spec_for(
    dataset: str = "cifar10_resnet", deletion_rate: float = 0.06
) -> ExperimentSpec:
    """The declarative loss-component ablation."""
    return ExperimentSpec(
        experiment_id="Table X",
        title="Loss-component ablation (acc / backdoor at round checkpoints)",
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
    """Reproduce Table X at this scale.

    ``checkpoints`` are 1-based round indices at which metrics are taken
    (the paper uses epochs 10/20/30/40; at reduced scale we checkpoint
    every unlearning round).
    """
    return runner.run_goldfish_variants(
        spec_for(dataset, deletion_rate), scale, checkpoints=checkpoints, seed=seed,
        variants={
            name: {"use_confusion": confusion, "use_distillation": distillation}
            for name, (confusion, distillation) in VARIANTS.items()
        },
    )
