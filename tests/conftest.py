"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data.dataset import ArrayDataset

settings.register_profile("soak", max_examples=2000, deadline=None)


def generated(max_examples: int) -> settings:
    """Settings for a generated test: derandomised at ``max_examples`` in
    tier-1; under ``--hypothesis-profile=soak`` the profile sets the
    count and ``--hypothesis-seed`` the seed (CI's transport smoke)."""
    if settings.default is settings.get_profile("soak"):
        return settings.default
    return settings(max_examples=max_examples, deadline=None, derandomize=True)


@pytest.fixture
def rng():
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


def make_blobs(
    num_samples: int = 60,
    num_classes: int = 3,
    shape=(1, 8, 8),
    separation: float = 3.0,
    noise: float = 0.5,
    seed: int = 0,
    name: str = "blobs",
) -> ArrayDataset:
    """Tiny learnable image dataset: per-class mean + Gaussian noise.

    Small enough that a few SGD epochs reach high accuracy, which keeps
    behavioural tests fast.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, separation, size=(num_classes,) + tuple(shape))
    labels = np.arange(num_samples) % num_classes
    images = means[labels] + rng.normal(0.0, noise, size=(num_samples,) + tuple(shape))
    return ArrayDataset(images=images, labels=labels, num_classes=num_classes, name=name)


def make_blob_federation(num_clients: int, per_client: int, test_size: int,
                         num_classes: int = 3, shape=(1, 4, 4), seed: int = 0,
                         separation: float = 1.2, noise: float = 1.0):
    """Clients + test set drawn from ONE blob distribution (same class
    means), so federated training generalises to the test split. Defaults
    are tuned so a few FL rounds land in the 0.7–0.95 accuracy band (not
    saturated — round-over-round improvement stays observable)."""
    total = num_clients * per_client + test_size
    ds = make_blobs(num_samples=total, num_classes=num_classes, shape=shape,
                    seed=seed, separation=separation, noise=noise)
    order = np.random.default_rng(seed + 1).permutation(total)
    clients = [
        ds.subset(order[i * per_client : (i + 1) * per_client])
        for i in range(num_clients)
    ]
    test = ds.subset(order[num_clients * per_client :])
    return clients, test


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        upper = fn(x)
        flat[i] = original - eps
        lower = fn(x)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2 * eps)
    return grad
