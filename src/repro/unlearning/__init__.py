"""``repro.unlearning`` — the Goldfish framework (the paper's contribution).

Modules map one-to-one onto the paper's four framework modules:

* basic model (teacher/student distillation): :mod:`~repro.unlearning.goldfish`
* loss function (Eq. 1–6): :mod:`~repro.unlearning.losses`
* optimisation (Eq. 7–10): :mod:`~repro.unlearning.early_stop`,
  :mod:`~repro.unlearning.sharding`
* extension (Eq. 11–13): :mod:`~repro.unlearning.temperature` and
  :class:`repro.federated.AdaptiveWeightAggregator`

plus the baselines (B1/B2/B3) and the federation-level protocols.
"""

from .baselines import (
    DiagonalFIMSGD,
    FedEraser,
    FedEraserConfig,
    FedEraserReport,
    FedRecovery,
    FedRecoveryConfig,
    FedRecoveryReport,
    IncompetentTeacherConfig,
    IncompetentTeacherUnlearner,
    RapidRetrainer,
    retrain_from_scratch,
)
from .deletion_manager import (
    BatchSizePolicy,
    DeletionManager,
    DeletionPolicy,
    DeletionRequest,
    ExecutedBatch,
    ImmediatePolicy,
    PeriodicPolicy,
    RequestState,
)
from .early_stop import EarlyStopConfig, ExcessRiskStopper
from .faultinject import FaultInjector, KillOnceTask
from .goldfish import GoldfishConfig, GoldfishResult, GoldfishUnlearner
from .journal import Journal, JournalCorruption, replay as replay_journal
from .losses import GoldfishLoss, GoldfishLossConfig, LossBreakdown, confusion_loss
from .protocols import (
    UnlearnOutcome,
    federated_goldfish,
    federated_incompetent_teacher,
    federated_rapid_retrain,
    federated_retrain,
)
from .registry import (
    ClientDeletionRequest,
    Unlearner,
    available_methods,
    get_unlearner,
    make_unlearner,
    register_unlearner,
)
from .service import PoissonArrivals, SlaMeter, UnlearningService
from .sharding import DeletionReport, ShardedClientTrainer
from .sisa import PendingDeletion, SisaConfig, SisaDeletionReport, SisaEnsemble
from .temperature import adaptive_temperature

__all__ = [
    "GoldfishConfig",
    "GoldfishUnlearner",
    "GoldfishResult",
    "GoldfishLoss",
    "GoldfishLossConfig",
    "LossBreakdown",
    "confusion_loss",
    "EarlyStopConfig",
    "ExcessRiskStopper",
    "DeletionManager",
    "FaultInjector",
    "KillOnceTask",
    "Journal",
    "JournalCorruption",
    "replay_journal",
    "PoissonArrivals",
    "RequestState",
    "SlaMeter",
    "UnlearningService",
    "PendingDeletion",
    "DeletionPolicy",
    "DeletionRequest",
    "ExecutedBatch",
    "ImmediatePolicy",
    "BatchSizePolicy",
    "PeriodicPolicy",
    "adaptive_temperature",
    "ShardedClientTrainer",
    "DeletionReport",
    "SisaConfig",
    "SisaDeletionReport",
    "SisaEnsemble",
    "retrain_from_scratch",
    "FedEraser",
    "FedEraserConfig",
    "FedEraserReport",
    "FedRecovery",
    "FedRecoveryConfig",
    "FedRecoveryReport",
    "RapidRetrainer",
    "DiagonalFIMSGD",
    "IncompetentTeacherUnlearner",
    "IncompetentTeacherConfig",
    "UnlearnOutcome",
    "federated_goldfish",
    "federated_retrain",
    "federated_rapid_retrain",
    "federated_incompetent_teacher",
    "ClientDeletionRequest",
    "Unlearner",
    "available_methods",
    "get_unlearner",
    "make_unlearner",
    "register_unlearner",
]
