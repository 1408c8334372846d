"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from repro.data.dataset import ArrayDataset

settings.register_profile("soak", max_examples=2000, deadline=None)


def generated(max_examples: int) -> settings:
    """Settings for a generated test: derandomised at ``max_examples`` in
    tier-1; under ``--hypothesis-profile=soak`` the profile sets the
    count and ``--hypothesis-seed`` the seed (CI's transport smoke)."""
    if settings.default is settings.get_profile("soak"):
        return settings.default
    return settings(max_examples=max_examples, deadline=None, derandomize=True)


# Inputs for the hyper-parameter validator properties: the non-finite
# values a bare range check waves through, boundaries, subnormals, and
# arbitrary floats.
NON_FINITE = (math.nan, math.inf, -math.inf)
HYPER_VALUES = st.one_of(
    st.sampled_from([
        *NON_FINITE, 0.0, -0.0, 5e-324, -5e-324,
        2.2e-308, 1e-3, 0.9, 1.0, 200.0, 1e308, -1.0,
    ]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


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


def log_durability(monkeypatch, log: list) -> None:
    """Append ``("fsync", path)``, ``("rename", src, dst)`` and
    ``("replace", src, dst)`` to ``log`` for every ``os.fsync``,
    ``os.rename`` and ``os.replace`` while still making the call.  An
    fsync is logged as the real path its descriptor names, so a file
    written under a temp directory and renamed after its fsync is logged
    under the temp name."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("naming a descriptor's path needs /proc/self/fd")
    real_fsync, real_rename, real_replace = os.fsync, os.rename, os.replace

    def fsync(descriptor):
        log.append(("fsync", os.readlink(f"/proc/self/fd/{descriptor}")))
        return real_fsync(descriptor)

    def moved(kind, real):
        def move(src, dst):
            log.append((kind, os.path.realpath(src), os.path.realpath(dst)))
            return real(src, dst)

        return move

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "rename", moved("rename", real_rename))
    monkeypatch.setattr(os, "replace", moved("replace", real_replace))


def counterfactual_fit(ensemble, seed: int):
    """The fit that never held ``ensemble``'s deleted samples: its factory,
    dataset, config and ``seed`` (the one it was built with), over its own
    partition with every deleted index taken out of its slice."""
    from repro.unlearning import SisaEnsemble

    forgotten = sorted(ensemble.deleted_indices)
    return SisaEnsemble(
        ensemble.model_factory,
        ensemble.dataset,
        ensemble.config,
        seed=seed,
        _slices=[
            [part[~np.isin(part, forgotten)] for part in shard.slice_indices]
            for shard in ensemble._shards
        ],
    ).fit()


def sidecar_files(plan, num_slices: int) -> list:
    """The checkpoint files a deletion window's plan says its sidecar
    holds: each shard's, from its first affected slice on."""
    return sorted(
        f"shard{shard}_slice{slice_index}.ckpt"
        for shard, start in plan.first_slices.items()
        for slice_index in range(start, num_slices)
    )
