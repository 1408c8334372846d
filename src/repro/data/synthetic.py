"""Deterministic synthetic stand-ins for the paper's four benchmark datasets.

The evaluation machines have no network access, so MNIST / Fashion-MNIST /
CIFAR-10 / CIFAR-100 cannot be downloaded. Each generator below produces a
dataset with the *same interface* (shape, channel count, class count and
default split sizes from the paper's Table II) and with controllable
difficulty, so every experiment exercises the identical code path.

Construction: each class gets a small number of low-frequency "prototype"
images (coarse random grids upsampled with ``np.kron`` and smoothed). A
sample is a randomly chosen prototype, randomly shifted by a few pixels,
modulated in contrast, plus Gaussian pixel noise. This makes classes
linearly non-trivial yet learnable by LeNet-scale convnets within a few
epochs — matching the role the real datasets play in the paper (they are a
carrier for *relative* comparisons between unlearning methods, not an end
in themselves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .dataset import ArrayDataset

# Default split sizes from the paper's Table II.
PAPER_SPLITS = {
    "mnist": (60_000, 10_000),
    "fmnist": (60_000, 10_000),
    "cifar10": (50_000, 10_000),
    "cifar100": (50_000, 10_000),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset family."""

    name: str
    in_channels: int
    image_size: int
    num_classes: int
    noise_std: float
    prototypes_per_class: int
    max_shift: int
    coarse_cells: int  # prototype resolution before upsampling
    test_noise_std: float = 0.0  # defaults to noise_std when 0

    def effective_test_noise(self) -> float:
        return self.test_noise_std if self.test_noise_std > 0 else self.noise_std

    def grid_factor(self) -> int:
        if self.image_size % self.coarse_cells:
            raise ValueError(
                f"image_size {self.image_size} not divisible by coarse_cells "
                f"{self.coarse_cells}"
            )
        return self.image_size // self.coarse_cells


# Train-time noise is kept low so the origin model fits (and backdoors
# implant) within a few epochs; test-time noise is higher so test accuracy
# lands in the paper's mid-range band instead of saturating. See the module
# docstring.
SPECS = {
    "mnist": SyntheticSpec("mnist", 1, 28, 10, noise_std=0.40,
                           prototypes_per_class=2, max_shift=2, coarse_cells=7,
                           test_noise_std=1.10),
    "fmnist": SyntheticSpec("fmnist", 1, 28, 10, noise_std=0.45,
                            prototypes_per_class=3, max_shift=2, coarse_cells=7,
                            test_noise_std=1.30),
    "cifar10": SyntheticSpec("cifar10", 3, 32, 10, noise_std=0.45,
                             prototypes_per_class=3, max_shift=3, coarse_cells=8,
                             test_noise_std=1.20),
    "cifar100": SyntheticSpec("cifar100", 3, 32, 100, noise_std=0.40,
                              prototypes_per_class=2, max_shift=3, coarse_cells=8,
                              test_noise_std=1.10),
}


def _smooth(image: np.ndarray) -> np.ndarray:
    """Cheap 3x3 box blur along the spatial axes (no scipy dependency here)."""
    out = image.copy()
    for axis in (-2, -1):
        out = (np.roll(out, 1, axis=axis) + out + np.roll(out, -1, axis=axis)) / 3.0
    return out


def _make_prototypes(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Build (num_classes, prototypes_per_class, C, H, W) prototype bank."""
    factor = spec.grid_factor()
    shape = (
        spec.num_classes,
        spec.prototypes_per_class,
        spec.in_channels,
        spec.coarse_cells,
        spec.coarse_cells,
    )
    coarse = rng.normal(0.0, 1.0, size=shape)
    upsampled = np.kron(coarse, np.ones((1, 1, 1, factor, factor)))
    return _smooth(upsampled)


def generate(
    spec: SyntheticSpec,
    num_samples: int,
    rng: np.random.Generator,
    prototypes: Optional[np.ndarray] = None,
    noise_std: Optional[float] = None,
) -> ArrayDataset:
    """Sample ``num_samples`` images from the generative recipe of ``spec``.

    ``noise_std`` overrides the spec's train-time noise (used to generate
    the harder test split).
    """
    if num_samples <= 0:
        raise ValueError(f"num_samples must be positive, got {num_samples}")
    if prototypes is None:
        prototypes = _make_prototypes(spec, rng)
    noise_std = spec.noise_std if noise_std is None else noise_std

    labels = rng.integers(0, spec.num_classes, size=num_samples)
    proto_choice = rng.integers(0, spec.prototypes_per_class, size=num_samples)
    images = prototypes[labels, proto_choice].copy()

    # Per-sample geometric jitter: integer roll along H and W.
    shifts = rng.integers(-spec.max_shift, spec.max_shift + 1, size=(num_samples, 2))
    for i in range(num_samples):
        images[i] = np.roll(images[i], (shifts[i, 0], shifts[i, 1]), axis=(-2, -1))

    # Per-sample contrast modulation and additive pixel noise.
    contrast = rng.uniform(0.8, 1.2, size=(num_samples, 1, 1, 1))
    images = images * contrast + rng.normal(0.0, noise_std, size=images.shape)

    return ArrayDataset(images=images, labels=labels,
                        num_classes=spec.num_classes, name=spec.name)


def make_dataset(
    name: str,
    train_size: Optional[int] = None,
    test_size: Optional[int] = None,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Build (train, test) splits for one of the four paper datasets.

    ``train_size`` / ``test_size`` default to the paper's Table II values;
    experiments pass smaller values for CPU-scale runs. Train and test are
    drawn from the same prototype bank so generalisation is meaningful.
    """
    if name not in SPECS:
        raise ValueError(f"unknown dataset {name!r}; available: {sorted(SPECS)}")
    spec = SPECS[name]
    default_train, default_test = PAPER_SPLITS[name]
    train_size = default_train if train_size is None else train_size
    test_size = default_test if test_size is None else test_size

    name_key = sum(ord(ch) for ch in name)  # stable across processes (unlike hash())
    rng = np.random.default_rng(np.random.SeedSequence([name_key, seed]))
    prototypes = _make_prototypes(spec, rng)
    train = generate(spec, train_size, rng, prototypes=prototypes)
    test = generate(spec, test_size, rng, prototypes=prototypes,
                    noise_std=spec.effective_test_noise())
    return train, test


def synthetic_mnist(train_size=None, test_size=None, seed: int = 0):
    """Synthetic MNIST: 1x28x28, 10 classes (Table II row 1)."""
    return make_dataset("mnist", train_size, test_size, seed)


def synthetic_fmnist(train_size=None, test_size=None, seed: int = 0):
    """Synthetic Fashion-MNIST: 1x28x28, 10 classes, harder textures."""
    return make_dataset("fmnist", train_size, test_size, seed)


def synthetic_cifar10(train_size=None, test_size=None, seed: int = 0):
    """Synthetic CIFAR-10: 3x32x32, 10 classes."""
    return make_dataset("cifar10", train_size, test_size, seed)


def synthetic_cifar100(train_size=None, test_size=None, seed: int = 0):
    """Synthetic CIFAR-100: 3x32x32, 100 classes."""
    return make_dataset("cifar100", train_size, test_size, seed)


DATASET_FACTORIES = {
    "mnist": synthetic_mnist,
    "fmnist": synthetic_fmnist,
    "cifar10": synthetic_cifar10,
    "cifar100": synthetic_cifar100,
}
