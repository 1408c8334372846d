"""``repro.eval`` — validity, similarity and privacy-audit metrics."""

from .certification import (
    CertificationReport,
    RelearnReport,
    certify_outputs,
    relearn_time,
)
from .divergence import (
    jensen_shannon_divergence,
    kl_divergence,
    l2_distance,
    mean_jsd,
    t_test_p_value,
)
from .membership import (
    MembershipReport,
    membership_attack,
    ranking_auc,
    unlearning_privacy_gain,
)
from .metrics import DivergenceReport, accuracy_pct, compare_models

__all__ = [
    "kl_divergence",
    "jensen_shannon_divergence",
    "mean_jsd",
    "l2_distance",
    "t_test_p_value",
    "DivergenceReport",
    "compare_models",
    "accuracy_pct",
    "MembershipReport",
    "membership_attack",
    "ranking_auc",
    "unlearning_privacy_gain",
    "CertificationReport",
    "RelearnReport",
    "certify_outputs",
    "relearn_time",
]
