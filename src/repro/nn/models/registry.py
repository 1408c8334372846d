"""String-keyed model factory used by the experiment harness and examples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from ..module import Module
from .lenet import LeNet5, ModifiedLeNet5
from .mlp import MLP
from .resnet import resnet


def _build_lenet5(num_classes, rng, in_channels, image_size):
    return LeNet5(num_classes, rng, in_channels=in_channels, image_size=image_size)


def _build_modified_lenet5(num_classes, rng, in_channels, image_size):
    return ModifiedLeNet5(num_classes, rng, in_channels=in_channels, image_size=image_size)


def _build_mlp(num_classes, rng, in_channels, image_size):
    return MLP(in_channels * image_size * image_size, num_classes, rng, hidden=(64,))


def _resnet_builder(depth: int, base_width: int = 16):
    def build(num_classes, rng, in_channels, image_size):
        del image_size  # ResNet is fully convolutional; any size works.
        return resnet(depth, num_classes, rng, in_channels=in_channels,
                      base_width=base_width)

    return build


MODEL_BUILDERS: Dict[str, Callable[..., Module]] = {
    "lenet5": _build_lenet5,
    "modified_lenet5": _build_modified_lenet5,
    "mlp": _build_mlp,
    "resnet8": _resnet_builder(8),
    # CPU-friendly narrow member of the same family, used by the reduced
    # experiment scales in place of ResNet32/56.
    "resnet8_slim": _resnet_builder(8, base_width=4),
    "resnet20": _resnet_builder(20),
    "resnet32": _resnet_builder(32),
    "resnet56": _resnet_builder(56),
}
"""Every architecture named in the paper plus small stand-ins for CPU runs."""


def build_model(
    name: str,
    num_classes: int,
    rng: np.random.Generator,
    in_channels: int = 1,
    image_size: int = 28,
) -> Module:
    """Construct a model by registry name.

    Raises
    ------
    ValueError
        If ``name`` is not a registered architecture.
    """
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder(num_classes, rng, in_channels, image_size)


@dataclass(frozen=True)
class RegistryModelFactory:
    """A picklable zero-arg model factory.

    Unlike a closure over :func:`build_model`, an instance of this class
    survives pickling, so it can ride inside runtime tasks shipped to
    spawn-based worker processes. Every call returns an identically
    initialised fresh model (the init RNG is reseeded per call).
    """

    name: str
    num_classes: int
    in_channels: int = 1
    image_size: int = 28
    seed: int = 42

    def __post_init__(self) -> None:
        if self.name not in MODEL_BUILDERS:
            raise ValueError(
                f"unknown model {self.name!r}; available: {sorted(MODEL_BUILDERS)}"
            )

    def __call__(self) -> Module:
        return build_model(
            self.name,
            num_classes=self.num_classes,
            rng=np.random.default_rng(self.seed),
            in_channels=self.in_channels,
            image_size=self.image_size,
        )
