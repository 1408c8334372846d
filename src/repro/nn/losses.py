"""Loss functions.

Includes the three "hard loss" choices evaluated in the paper's Table XI
(cross-entropy = Total loss α, focal = β, NLL = γ) plus the soft-target
distillation loss of Eq. 5.

Shape contract of the hard losses: logits ``(..., N, classes)`` with
integer labels ``(..., N)``.  The class axis is the last one and the
reduction runs over the sample axis ``N`` only, so one client's
``(N, classes)`` batch gives a scalar and a stacked cohort's
``(K, N, classes)`` gives ``(K,)`` — slice ``k`` bit-identical, value and
gradient, to the loss of ``logits[k]`` alone (the log-softmax reduces
within a sample, the pick indexes within a slice, the mean divides by
the same ``N``).  There is no second, stacked set of losses.
:func:`distillation_loss` takes one batch and reduces over everything.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor


def _check_labels(logits: Tensor, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if logits.ndim < 2:
        raise ValueError(
            f"logits must be (..., N, classes), got shape {logits.shape}"
        )
    if labels.shape != logits.shape[:-1]:
        raise ValueError(
            f"batch mismatch: logits {logits.shape} need labels "
            f"{logits.shape[:-1]}, got {labels.shape}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[-1]):
        raise ValueError("labels out of range")
    return labels.astype(np.int64)


def _pick(log_probs: Tensor, labels: np.ndarray) -> Tensor:
    """Each sample's own-class entry: ``log_probs[..., n, labels[..., n]]``."""
    return log_probs[np.indices(labels.shape, sparse=True) + (labels,)]


def _reduce(values: Tensor, reduction: str, axis=None) -> Tensor:
    if reduction == "mean":
        return values.mean(axis=axis)
    if reduction == "sum":
        return values.sum(axis=axis)
    if reduction == "none":
        return values
    raise ValueError(f"unknown reduction {reduction!r}")


def _reduce_samples(per_sample: Tensor, reduction: str) -> Tensor:
    """Reduce ``(..., N)`` per-sample losses over ``N``, keeping any stack
    axes.  A lone batch names no axis — the same sum, without the
    per-axis bookkeeping in the per-step hot path."""
    return _reduce(per_sample, reduction, axis=-1 if per_sample.ndim > 1 else None)


def cross_entropy(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Softmax cross-entropy with integer class labels.

    Runs on the fused :func:`~repro.nn.functional.log_softmax` node: the
    backward pass reuses the forward's cached ``exp``/``sum`` to form the
    softmax instead of a second exp/sum round-trip, bit-identically.
    This is the training hot path — every mini-batch of every client,
    shard and protocol ends here.
    """
    labels = _check_labels(logits, labels)
    log_probs = F.log_softmax(logits, axis=-1)
    return _reduce_samples(-_pick(log_probs, labels), reduction)


def nll_loss(log_probs: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood on already-log-softmaxed inputs."""
    labels = _check_labels(log_probs, labels)
    return _reduce_samples(-_pick(log_probs, labels), reduction)


def nll_from_logits(logits: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """NLL applied to logits (Table XI 'Total loss γ' hard-loss variant)."""
    return nll_loss(F.log_softmax(logits, axis=-1), labels, reduction=reduction)


def focal_loss(
    logits: Tensor,
    labels: np.ndarray,
    gamma: float = 2.0,
    reduction: str = "mean",
) -> Tensor:
    """Focal loss (Lin et al., ICCV 2017): ``-(1 - p_t)^gamma * log(p_t)``.

    Down-weights well-classified examples; Table XI 'Total loss β'.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    labels = _check_labels(logits, labels)
    picked_log = _pick(F.log_softmax(logits, axis=-1), labels)
    p_t = picked_log.exp()
    modulator = (1.0 - p_t) ** gamma if gamma else Tensor(np.ones_like(p_t.data))
    return _reduce_samples(-(modulator * picked_log), reduction)


def label_smoothing_loss(
    logits: Tensor,
    labels: np.ndarray,
    smoothing: float = 0.1,
    reduction: str = "mean",
) -> Tensor:
    """Cross-entropy against smoothed targets (Szegedy et al., CVPR 2016).

    ``loss = -(1 - ε)·log p_y − (ε / C)·Σ_j log p_j`` — spreads ε of the
    target mass uniformly over all classes, a standard regulariser for the
    over-confident predictions distillation teachers tend to produce.
    Used as the 'Total loss δ' hard-loss variant extending Table XI.
    """
    if not 0 <= smoothing < 1:
        raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
    labels = _check_labels(logits, labels)
    log_probs = F.log_softmax(logits, axis=-1)
    picked = _pick(log_probs, labels)
    num_classes = logits.shape[-1]
    uniform_term = log_probs.sum(axis=-1) * (smoothing / num_classes)
    per_sample = -((1.0 - smoothing) * picked + uniform_term)
    return _reduce_samples(per_sample, reduction)


def distillation_loss(
    teacher_logits: Tensor,
    student_logits: Tensor,
    temperature: float = 1.0,
    reduction: str = "mean",
) -> Tensor:
    """Soft-target distillation loss of paper Eq. 5.

    ``Ld = -sum_i P_T(x_i) . log P_S(x_i)`` where both distributions use the
    same distillation temperature (Eq. 3–4). The teacher's distribution is
    treated as a constant target (no gradient flows into the teacher).
    """
    if teacher_logits.shape != student_logits.shape:
        raise ValueError(
            f"teacher/student shape mismatch: {teacher_logits.shape} vs {student_logits.shape}"
        )
    teacher_probs = F.softmax(teacher_logits.detach(), axis=1, temperature=temperature)
    student_log_probs = F.log_softmax(student_logits / float(temperature), axis=1)
    per_sample = -(teacher_probs * student_log_probs).sum(axis=1)
    return _reduce(per_sample, reduction)


HARD_LOSSES = {
    "cross_entropy": cross_entropy,
    "focal": focal_loss,
    "nll": nll_from_logits,
    "label_smoothing": label_smoothing_loss,
}
"""Registry of hard-loss choices (Table XI: α / β / γ, plus our δ)."""


def get_hard_loss(name: str):
    """Look up a hard-loss function by registry name."""
    try:
        return HARD_LOSSES[name]
    except KeyError:
        raise ValueError(
            f"unknown hard loss {name!r}; available: {sorted(HARD_LOSSES)}"
        ) from None
