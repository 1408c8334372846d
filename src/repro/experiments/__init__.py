"""``repro.experiments`` — one runner per paper table and figure.

| Module | Paper artifact |
|---|---|
| :mod:`.fig4_retraining` | Fig 4a–e retraining accuracy curves |
| :mod:`.fig5_backdoor` | Fig 5a–e + Tables III–VI |
| :mod:`.tab7_9_divergence` | Tables VII–IX |
| :mod:`.tab10_ablation` | Table X loss ablation |
| :mod:`.tab11_loss_compat` | Table XI hard-loss compatibility |
| :mod:`.fig6_shards` | Fig 6 shard-count convergence |
| :mod:`.fig7_shard_deletion` | Fig 7a–c deletion-recovery timelines |
| :mod:`.fig8_heterogeneous` | Fig 8a–c + Table XII |
| :mod:`.fig9_iid` | Fig 9 IID aggregation comparison |

Beyond the paper's artifacts, two extension experiments:

| :mod:`.efficiency` | systems cost of all six unlearning methods |
| :mod:`.certification` | (ε̂, δ) / MIA / relearn-time certification |

Every runner takes an :class:`~repro.experiments.scale.ExperimentScale`
(``smoke`` / ``small`` / ``paper``) and returns an
:class:`~repro.experiments.results.ExperimentResult` whose ``render()``
prints the same rows/series the paper reports.  The CLI
(``python -m repro.experiments``) runs exactly these artifacts; each
declares its :class:`~repro.experiments.spec.ExperimentSpec` (id, title,
scenario, methods) and calls its loop in :mod:`.runner` with the loop's
knobs as arguments.
"""

from . import (
    certification,
    efficiency,
    fig4_retraining,
    fig5_backdoor,
    fig6_shards,
    fig7_shard_deletion,
    fig8_heterogeneous,
    fig9_iid,
    runner,
    tab7_9_divergence,
    tab10_ablation,
    tab11_loss_compat,
)
from .results import ExperimentResult
from .scale import PAPER, SCALES, SMALL, SMOKE, ExperimentScale, get_scale
from .spec import (
    AttackSpec,
    DatasetSpec,
    DeletionSpec,
    ExperimentSpec,
    FederationSpec,
    PartitionSpec,
    Scenario,
    ScenarioSpec,
    build_scenario,
)

__all__ = [
    "ExperimentScale",
    "ExperimentResult",
    "get_scale",
    "SCALES",
    "SMOKE",
    "SMALL",
    "PAPER",
    "AttackSpec",
    "DatasetSpec",
    "DeletionSpec",
    "ExperimentSpec",
    "FederationSpec",
    "PartitionSpec",
    "Scenario",
    "ScenarioSpec",
    "build_scenario",
    "runner",
    "fig4_retraining",
    "fig5_backdoor",
    "fig6_shards",
    "fig7_shard_deletion",
    "fig8_heterogeneous",
    "fig9_iid",
    "tab7_9_divergence",
    "tab10_ablation",
    "tab11_loss_compat",
    "efficiency",
    "certification",
]
