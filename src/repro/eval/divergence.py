"""Distribution-level validity metrics (paper Tables VII–IX).

Unlearning validity is measured by comparing the *output distributions* of
an unlearned model against the retrained-from-scratch reference (B1):

* **Jensen–Shannon divergence** — symmetrised, bounded KL divergence
  between the two models' mean predicted class distributions;
* **L2 distance** — mean squared error between predicted probability
  vectors, sample by sample;
* **Welch's t-test** — p-value for the hypothesis that per-sample
  confidence scores of the two models share a mean.

Every metric raises ``ValueError`` on inputs it cannot score — empty,
non-finite or negative entries, mismatched shapes, a vector with no
probability mass — so a model whose outputs went NaN never reads as
"no divergence".  The t-test imports scipy on first use, past its
identical-inputs shortcut: importing this module (and so ``repro``)
loads numpy only.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_EPS = 1e-12


def _validate_distributions(p: np.ndarray, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if p.size == 0:
        raise ValueError(f"empty distributions of shape {p.shape}")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("distributions must be finite")
    if np.any(p < -_EPS) or np.any(q < -_EPS):
        raise ValueError("distributions must be non-negative")
    return p, q


def _normalized(p: np.ndarray) -> np.ndarray:
    total = p.sum()
    if total <= 0:
        raise ValueError("a distribution has no probability mass")
    return p / total


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p ‖ q) for 1-D probability vectors, in nats."""
    p, q = _validate_distributions(p, q)
    p = _normalized(p)
    q = _normalized(q)
    mask = p > _EPS
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], _EPS))))


def jensen_shannon_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """JSD(p ‖ q) = ½ KL(p ‖ m) + ½ KL(q ‖ m), m = (p+q)/2. Bounded by ln 2."""
    p, q = _validate_distributions(p, q)
    p = _normalized(p)
    q = _normalized(q)
    mid = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, mid) + 0.5 * kl_divergence(q, mid)


def mean_jsd(probs_a: np.ndarray, probs_b: np.ndarray) -> float:
    """JSD between the two models' *mean* predicted class distributions.

    ``probs_*`` are ``(N, classes)`` per-sample probability matrices from
    the same evaluation set.
    """
    probs_a, probs_b = _validate_distributions(probs_a, probs_b)
    if probs_a.ndim != 2:
        raise ValueError(f"expected (N, classes) matrices, got {probs_a.shape}")
    return jensen_shannon_divergence(probs_a.mean(axis=0), probs_b.mean(axis=0))


def l2_distance(probs_a: np.ndarray, probs_b: np.ndarray) -> float:
    """Mean squared error between per-sample probability vectors."""
    probs_a, probs_b = _validate_distributions(probs_a, probs_b)
    return float(((probs_a - probs_b) ** 2).mean())


def t_test_p_value(probs_a: np.ndarray, probs_b: np.ndarray) -> float:
    """Welch t-test p-value over per-sample max-confidence scores.

    Small p-values indicate the two models' confidence profiles differ
    significantly (the paper uses this to show the unlearned model departs
    from the backdoored original's prediction pattern).
    """
    probs_a, probs_b = _validate_distributions(probs_a, probs_b)
    if probs_a.ndim != 2 or probs_a.shape[0] < 2:
        raise ValueError(
            f"expected (N >= 2, classes) matrices, got {probs_a.shape}")
    conf_a = probs_a.max(axis=1)
    conf_b = probs_b.max(axis=1)
    if np.allclose(conf_a, conf_b):
        return 1.0
    from scipy import stats

    result = stats.ttest_ind(conf_a, conf_b, equal_var=False)
    return float(result.pvalue)
